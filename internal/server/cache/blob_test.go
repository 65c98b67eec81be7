package cache

import (
	"errors"
	"strings"
	"testing"
)

// fp returns a syntactically valid fingerprint key for tests.
func fp(seed byte) string {
	return strings.Repeat(string([]byte{'a' + seed%6}), 64)
}

func TestDirStoreRoundTrip(t *testing.T) {
	s, err := NewDirStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	key := fp(0)
	if _, err := s.Get(key); !errors.Is(err, ErrBlobNotFound) {
		t.Fatalf("missing key err = %v, want ErrBlobNotFound", err)
	}
	if err := s.Put(key, []byte("payload")); err != nil {
		t.Fatal(err)
	}
	data, err := s.Get(key)
	if err != nil || string(data) != "payload" {
		t.Fatalf("get = %q, %v", data, err)
	}
	// Re-put of a content-addressed key is idempotent.
	if err := s.Put(key, []byte("payload")); err != nil {
		t.Fatal(err)
	}
}

func TestBlobStoresRejectBadKeys(t *testing.T) {
	dir, err := NewDirStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	mem := NewMemStore()
	bad := []string{
		"",
		"short",
		"../../../../etc/passwd",
		strings.Repeat("A", 64),           // uppercase
		strings.Repeat("g", 64),           // non-hex
		strings.Repeat("a", 63) + "/",     // separator
		"..%2f" + strings.Repeat("a", 58), // encoded traversal
		strings.Repeat("a", 32) + ".." + strings.Repeat("a", 30), // dots mid-key
	}
	for _, key := range bad {
		if err := dir.Put(key, []byte("x")); err == nil {
			t.Errorf("DirStore.Put accepted bad key %q", key)
		}
		if _, err := dir.Get(key); !errors.Is(err, ErrBlobNotFound) {
			t.Errorf("DirStore.Get(%q) err = %v, want ErrBlobNotFound", key, err)
		}
		if err := mem.Put(key, []byte("x")); err == nil {
			t.Errorf("MemStore.Put accepted bad key %q", key)
		}
	}
}
