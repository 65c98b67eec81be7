package server

// Reading a POST body, decoded once per distinct body. A cached analyze
// is mostly JSON decoding: the program text dominates the body, and
// decoding it costs several times what rendering the reply does. So the
// replica remembers, per exact body its handler accepted, what the body
// resolved to — the decoded request and its program's fingerprint — and
// a byte-identical repeat pays one SHA-256 instead of one decode. The
// memo holds no program text: the decoded request is stored with Name
// and Source cleared. A hit serves what needs only the fingerprint (a
// warm cache entry, an adopted artifact); a cold load of an evicted
// program decodes the body again, exactly as a first request does.

import (
	"bytes"
	"crypto/sha256"
	"encoding/json"
	"io"
	"net/http"

	"commute"
	"commute/internal/server/api"
)

// memoEntry is what one request body resolved to: the decoded request
// (an api.AnalyzeRequest, RunRequest or SimulateRequest) with its program
// text cleared, and the program's fingerprint. Entries are shared by
// every request goroutine and never mutated.
type memoEntry struct {
	req any
	key string
}

// program is the program a request names. key is its fingerprint. err,
// when set, is why the request names none; accept answers it with a 422.
// text yields the name, source and load options: on a memo hit it
// decodes the body again, which only the paths that load the program
// pay. remember stores the body's entry; it is nil on a memo hit.
type program struct {
	key      string
	err      error
	text     func() (name, source string, opts commute.LoadOptions, err error)
	remember func()
}

// accept is called by a handler once its own checks of the request have
// passed. It answers a request that names no program with a 422 and
// otherwise remembers the body: only a request the handler accepts
// enters the memo, so an entry holds no field past the handler's limits.
func (p program) accept(w http.ResponseWriter) error {
	if p.err != nil {
		return writeErr(w, http.StatusUnprocessableEntity, p.err.Error())
	}
	if p.remember != nil {
		p.remember()
	}
	return nil
}

// readRequest reads one POST body, capped at api.MaxBodyBytes, and decodes
// it into a T with unknown fields refused; src names the SourceRequest a
// T embeds. A body the handler accepts (program.accept) is remembered,
// keyed by the SHA-256 of the endpoint and the exact bytes, and a repeat
// of it skips the decode. On failure it writes the 400 or 413 and
// returns the error.
func readRequest[T any](s *Server, w http.ResponseWriter, r *http.Request, src func(*T) *api.SourceRequest) (T, program, error) {
	var req T
	body, err := io.ReadAll(io.LimitReader(r.Body, api.MaxBodyBytes+1))
	if err != nil {
		return req, program{}, writeErr(w, http.StatusBadRequest, "bad request body: "+err.Error())
	}
	if len(body) > api.MaxBodyBytes {
		return req, program{}, writeErr(w, http.StatusRequestEntityTooLarge, "request body over cap")
	}
	sum := bodySum(r.URL.Path, body)
	if e, ok := s.memo.Get(sum); ok {
		if req, ok := e.req.(T); ok {
			return req, program{key: e.key, text: func() (string, string, commute.LoadOptions, error) {
				var full T
				if err := decodeBody(body, &full); err != nil {
					return "", "", commute.LoadOptions{}, err
				}
				return resolveSource(*src(&full))
			}}, nil
		}
	}
	if err := decodeBody(body, &req); err != nil {
		return req, program{}, writeErr(w, http.StatusBadRequest, "bad request body: "+err.Error())
	}
	name, source, opts, err := resolveSource(*src(&req))
	if err != nil {
		return req, program{err: err}, nil
	}
	key := commute.Fingerprint(name, source, opts)
	return req, program{key: key, text: func() (string, string, commute.LoadOptions, error) {
		return name, source, opts, nil
	}, remember: func() {
		kept := req
		src(&kept).Name, src(&kept).Source = "", ""
		s.memo.Put(sum, memoEntry{req: kept, key: key})
	}}, nil
}

// bodySum is the memo key of a body posted to path.
func bodySum(path string, body []byte) (sum [sha256.Size]byte) {
	h := sha256.New()
	io.WriteString(h, path)
	h.Write([]byte{0})
	h.Write(body)
	h.Sum(sum[:0])
	return sum
}

// decodeBody decodes the first JSON value of body into dst, refusing
// unknown fields. Bytes after that value are ignored.
func decodeBody(body []byte, dst any) error {
	dec := json.NewDecoder(bytes.NewReader(body))
	dec.DisallowUnknownFields()
	return dec.Decode(dst)
}

func analyzeSource(r *api.AnalyzeRequest) *api.SourceRequest   { return &r.SourceRequest }
func runSource(r *api.RunRequest) *api.SourceRequest           { return &r.SourceRequest }
func simulateSource(r *api.SimulateRequest) *api.SourceRequest { return &r.SourceRequest }
