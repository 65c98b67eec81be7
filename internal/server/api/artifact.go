package api

// Artifact bundles are the unit of the fleet's shared artifact tier: a
// cold replica that finds a peer's bundle for a fingerprint adopts the
// serialized analysis — method reports, parallel-method list, loop
// counts, and the emitted parallel source — instead of re-running
// parse, type check, and commutativity analysis itself. Bundles are
// content-addressed by the same commute.Fingerprint that keys the
// in-memory system cache, and the wire encoding carries an integrity
// frame so a truncated blob file or a mislabeled peer response is
// rejected rather than served.

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"strings"
)

// ArtifactBundle is the serialized analysis artifact for one program.
// Everything /v1/analyze returns can be reconstructed from it without a
// loaded system.
type ArtifactBundle struct {
	// Fingerprint is the program's content address (commute.Fingerprint
	// of name, source, and options); decoding verifies it against the
	// key the bundle was requested under.
	Fingerprint string `json:"fingerprint"`
	// Name labels the program in diagnostics.
	Name string `json:"name"`

	Methods         []MethodReport `json:"methods"`
	ParallelMethods []string       `json:"parallel_methods"`
	LoopsFound      int            `json:"loops_found"`
	LoopsSuppressed int            `json:"loops_suppressed"`
	// LoopsRefused is absent from a bundle published before the field
	// existed, and from any bundle with nothing to report: it decodes to 0.
	LoopsRefused int `json:"loops_refused,omitempty"`
	// ParallelSource is the generated parallel source (Figure 2 style);
	// empty when the producing replica could not emit it.
	ParallelSource string `json:"parallel_source,omitempty"`
}

// artifactMagic is the frame header of an encoded bundle. The version
// suffix guards against schema drift between replicas built from
// different revisions: a decoder never misparses a future encoding, it
// rejects it.
const artifactMagic = "commute-artifact/1"

// EncodeArtifact frames a bundle for the blob tier: a header line with
// the format version and the hex SHA-256 of the JSON payload, then the
// payload itself.
func EncodeArtifact(b *ArtifactBundle) ([]byte, error) {
	payload, err := json.Marshal(b)
	if err != nil {
		return nil, err
	}
	sum := sha256.Sum256(payload)
	var out bytes.Buffer
	fmt.Fprintf(&out, "%s %s\n", artifactMagic, hex.EncodeToString(sum[:]))
	out.Write(payload)
	return out.Bytes(), nil
}

// DecodeArtifact parses and verifies an encoded bundle: the frame
// checksum must match the payload and the embedded fingerprint must
// match the key the caller asked the blob tier for. Either mismatch
// means the blob is corrupt or mislabeled and must not be adopted.
func DecodeArtifact(key string, data []byte) (*ArtifactBundle, error) {
	nl := bytes.IndexByte(data, '\n')
	if nl < 0 {
		return nil, fmt.Errorf("artifact %s: missing frame header", key)
	}
	header, payload := string(data[:nl]), data[nl+1:]
	magic, sumHex, ok := strings.Cut(header, " ")
	if !ok || magic != artifactMagic {
		return nil, fmt.Errorf("artifact %s: bad frame header %q", key, header)
	}
	sum := sha256.Sum256(payload)
	if hex.EncodeToString(sum[:]) != sumHex {
		return nil, fmt.Errorf("artifact %s: payload checksum mismatch", key)
	}
	var b ArtifactBundle
	if err := json.Unmarshal(payload, &b); err != nil {
		return nil, fmt.Errorf("artifact %s: %w", key, err)
	}
	if b.Fingerprint != key {
		return nil, fmt.Errorf("artifact %s: bundle is fingerprinted %s", key, b.Fingerprint)
	}
	return &b, nil
}
