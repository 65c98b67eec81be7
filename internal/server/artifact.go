package server

// The serving side of the shared artifact tier. After a cold load the
// replica serializes the program's analysis — method reports, parallel
// methods, loop counts, emitted parallel source — into an
// api.ArtifactBundle and publishes it to the configured blob store.
// When another replica later misses on the same fingerprint, it adopts
// the bundle (decode + integrity check) and answers /v1/analyze
// without re-running parse, type check, or commutativity analysis.
// Adopted bundles are kept in a small in-memory LRU so repeat requests
// on a non-owner replica stop paying even the blob fetch.

import (
	"container/list"
	"time"

	"commute"
	"commute/internal/server/api"
	"commute/internal/server/cache"
)

// artMemEntries bounds the in-memory adopted-bundle LRU. Bundles are
// small (a report list plus one source file), so this is a few MiB at
// most.
const artMemEntries = 128

// bundleFromSystem collects a loaded system's analysis artifacts, the
// emitted parallel source only when source is set.
func bundleFromSystem(key, name string, sys *commute.System, source bool) *api.ArtifactBundle {
	b := &api.ArtifactBundle{
		Fingerprint:     key,
		Name:            name,
		ParallelMethods: sys.ParallelMethods(),
		LoopsFound:      sys.Plan.LoopsFound,
		LoopsSuppressed: sys.Plan.LoopsSuppressed,
		LoopsRefused:    sys.Plan.LoopsRefused,
	}
	for _, mr := range sys.Reports() {
		b.Methods = append(b.Methods, apiMethodReport(mr))
	}
	if source && sys.File != nil {
		b.ParallelSource = sys.Plan.EmitParallelSource(sys.File)
	}
	return b
}

// publishArtifact encodes and offers the bundle to the blob tier, if
// there is one. Publishing is best-effort: a full disk or an
// unreachable tier must not fail the request that triggered the cold
// load.
func (s *Server) publishArtifact(b *api.ArtifactBundle) {
	if s.blobs == nil {
		return
	}
	data, err := api.EncodeArtifact(b)
	if err != nil {
		return
	}
	if s.blobs.Put(b.Fingerprint, data) == nil {
		s.published.Add(1)
	}
}

// adoptArtifact looks the fingerprint up in the adopted-bundle LRU and
// then the blob tier. A blob-tier hit is decoded, integrity-checked,
// counted as an adoption, and cached in the LRU.
func (s *Server) adoptArtifact(key string) (*api.ArtifactBundle, bool) {
	s.artMu.Lock()
	if el, ok := s.artMap[key]; ok {
		s.artLL.MoveToFront(el)
		b := el.Value.(*artEntry).bundle
		s.artMu.Unlock()
		return b, true
	}
	s.artMu.Unlock()

	if s.blobs == nil {
		return nil, false
	}
	data, err := s.blobs.Get(key)
	if err != nil {
		return nil, false
	}
	b, err := api.DecodeArtifact(key, data)
	if err != nil {
		// Corrupt or mislabeled blob: refuse to adopt; the caller falls
		// back to a full load, which will re-publish a good bundle.
		return nil, false
	}
	s.adoptions.Add(1)

	s.artMu.Lock()
	if _, ok := s.artMap[key]; !ok {
		s.artMap[key] = s.artLL.PushFront(&artEntry{key: key, bundle: b})
		if s.artLL.Len() > artMemEntries {
			old := s.artLL.Back()
			s.artLL.Remove(old)
			delete(s.artMap, old.Value.(*artEntry).key)
		}
	}
	s.artMu.Unlock()
	return b, true
}

// artEntry is one adopted bundle in the LRU.
type artEntry struct {
	key    string
	bundle *api.ArtifactBundle
}

// initArtifacts wires the artifact state at construction.
func (s *Server) initArtifacts(blobs cache.BlobStore) {
	s.blobs = blobs
	s.artMap = make(map[string]*list.Element)
	s.artLL = list.New()
}

// analyzeFromBundle renders the /v1/analyze response for an adopted
// bundle, or for the one a cold load just built.
func analyzeFromBundle(b *api.ArtifactBundle, key, cacheWord string, emit bool, start time.Time) api.AnalyzeResponse {
	resp := api.AnalyzeResponse{
		Key:             key,
		Cache:           cacheWord,
		Methods:         b.Methods,
		ParallelMethods: b.ParallelMethods,
		LoopsFound:      b.LoopsFound,
		LoopsSuppressed: b.LoopsSuppressed,
		LoopsRefused:    b.LoopsRefused,
	}
	if emit {
		resp.ParallelSource = b.ParallelSource
	}
	resp.ElapsedMS = float64(time.Since(start)) / float64(time.Millisecond)
	return resp
}
