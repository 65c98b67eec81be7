package api

import (
	"bytes"
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
	old := bytes.Replace(frame, []byte(artifactMagic+" "), []byte("commute-artifact/1 "), 1)
	if bytes.Equal(old, frame) {
		t.Fatalf("frame does not start with %q: %.40q", artifactMagic, frame)
	}
	if b, err := DecodeArtifact(key, old); err == nil {
		t.Fatalf("a commute-artifact/1 frame decodes: %+v", b)
	}
}
