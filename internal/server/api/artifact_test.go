package api

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"testing"
)

// TestDecodeArtifactRejectsOtherVersions: a bundle framed by a replica of
// another format version is refused, although its checksum and its
// fingerprint are both right — its parallel source may say what an older
// build ran.
func TestDecodeArtifactRejectsOtherVersions(t *testing.T) {
	const key = "0123456789abcdef0123456789abcdef0123456789abcdef0123456789abcdef"
	frame, err := EncodeArtifact(&ArtifactBundle{Fingerprint: key, Name: "graph.mc", ParallelSource: "void main() {\n}\n"})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := DecodeArtifact(key, frame); err != nil {
		t.Fatalf("own frame: %v", err)
	}
	old := bytes.Replace(frame, []byte(artifactMagic+" "), []byte("commute-artifact/3 "), 1)
	if bytes.Equal(old, frame) {
		t.Fatalf("frame does not start with %q: %.40q", artifactMagic, frame)
	}
	if b, err := DecodeArtifact(key, old); err == nil {
		t.Fatalf("a commute-artifact/3 frame decodes: %+v", b)
	}
}

// FuzzDecodeArtifact: whatever a blob store or a peer hands back —
// truncated, corrupted, of another format version, filed under another
// key — DecodeArtifact never panics, and a bundle it accepts carries the
// key it was asked for and survives a round trip: re-encoded, it decodes
// to the same bundle. Each input is also tried as the payload of a frame
// with the right checksum, so the JSON behind the frame is fuzzed too.
func FuzzDecodeArtifact(f *testing.F) {
	const key = "0123456789abcdef0123456789abcdef0123456789abcdef0123456789abcdef"
	frame, err := EncodeArtifact(&ArtifactBundle{Fingerprint: key, Name: "graph.mc",
		Methods:         []MethodReport{{Method: "graph::visit", Parallel: true, Confidence: 1, GuardTree: &Condition{Kind: "and", Ps: []*Condition{{Kind: "atom", Expr: "mode == 0"}}}}},
		ParallelMethods: []string{"graph::visit"}, LoopsFound: 2, ParallelSource: "void main() {\n}\n"})
	if err != nil {
		f.Fatal(err)
	}
	header := bytes.IndexByte(frame, '\n')
	flipped := bytes.Clone(frame)
	flipped[header+10] ^= 1
	for _, data := range [][]byte{
		frame,
		frame[:header/2],
		frame[:header+(len(frame)-header)/2],
		flipped,
		bytes.Replace(frame, []byte(artifactMagic), []byte("commute-artifact/3"), 1),
	} {
		f.Add(key, data)
	}
	f.Add(key[1:]+"0", frame)
	f.Fuzz(func(t *testing.T, key string, data []byte) {
		sum := sha256.Sum256(data)
		for _, data := range [][]byte{data, append([]byte(artifactMagic+" "+hex.EncodeToString(sum[:])+"\n"), data...)} {
			b, err := DecodeArtifact(key, data)
			if err != nil {
				continue
			}
			if b.Fingerprint != key {
				t.Fatalf("accepted a bundle fingerprinted %q under the key %q", b.Fingerprint, key)
			}
			again, err := EncodeArtifact(b)
			if err != nil {
				t.Fatalf("re-encoding an accepted bundle: %v", err)
			}
			b2, err := DecodeArtifact(key, again)
			if err != nil {
				t.Fatalf("a re-encoded bundle does not decode: %v", err)
			}
			if j1, j2 := mustJSON(t, b), mustJSON(t, b2); !bytes.Equal(j1, j2) {
				t.Fatalf("round trip changed the bundle:\n%s\n%s", j1, j2)
			}
		}
	})
}

func mustJSON(t *testing.T, b *ArtifactBundle) []byte {
	t.Helper()
	j, err := json.Marshal(b)
	if err != nil {
		t.Fatal(err)
	}
	return j
}
