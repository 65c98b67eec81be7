package cache

// The blob tier: a pluggable content-addressed byte store shared by
// fleet replicas. The in-memory Cache holds warm *commute.System
// artifacts for this process; the blob tier holds their serialized
// form (api.EncodeArtifact bundles) where any replica can reach them,
// so a cold replica adopts a peer's analysis instead of re-running it.
//
// Keys are commute.Fingerprint values — 64 lowercase hex characters —
// and every implementation rejects anything else, so a store rooted in
// a directory can never be steered outside it.

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sync"
)

// ErrBlobNotFound is returned by BlobStore.Get for a missing key.
var ErrBlobNotFound = errors.New("blob not found")

// BlobStore is a content-addressed byte store. Implementations must be
// safe for concurrent use. Get returns ErrBlobNotFound (possibly
// wrapped) for missing keys; other errors mean the tier itself failed.
type BlobStore interface {
	Get(key string) ([]byte, error)
	Put(key string, data []byte) error
}

// validKey reports whether key is a well-formed fingerprint (64
// lowercase hex characters).
func validKey(key string) bool {
	if len(key) != 64 {
		return false
	}
	for i := 0; i < len(key); i++ {
		c := key[i]
		if (c < '0' || c > '9') && (c < 'a' || c > 'f') {
			return false
		}
	}
	return true
}

// ---------------------------------------------------------------------
// Directory store

// DirStore keeps blobs as files under a root directory, fanned into
// 256 two-hex-character subdirectories. Puts are atomic (temp file +
// rename), so replicas sharing the directory — the fleet artifact
// tier — never observe a torn blob.
type DirStore struct {
	dir string
}

// NewDirStore returns a DirStore rooted at dir, creating it if needed.
func NewDirStore(dir string) (*DirStore, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	return &DirStore{dir: dir}, nil
}

func (s *DirStore) path(key string) string {
	return filepath.Join(s.dir, key[:2], key)
}

// Get reads the blob for key.
func (s *DirStore) Get(key string) ([]byte, error) {
	if !validKey(key) {
		return nil, fmt.Errorf("bad blob key %q: %w", key, ErrBlobNotFound)
	}
	data, err := os.ReadFile(s.path(key))
	if errors.Is(err, os.ErrNotExist) {
		return nil, fmt.Errorf("%s: %w", key, ErrBlobNotFound)
	}
	return data, err
}

// Put writes the blob atomically. A concurrent Put of the same key is
// harmless: blobs are content-addressed, so both writers carry
// identical bytes and rename is atomic either way.
func (s *DirStore) Put(key string, data []byte) error {
	if !validKey(key) {
		return fmt.Errorf("bad blob key %q", key)
	}
	p := s.path(key)
	if err := os.MkdirAll(filepath.Dir(p), 0o755); err != nil {
		return err
	}
	tmp, err := os.CreateTemp(filepath.Dir(p), "."+key+".tmp*")
	if err != nil {
		return err
	}
	if _, err := tmp.Write(data); err != nil {
		tmp.Close()
		os.Remove(tmp.Name())
		return err
	}
	if err := tmp.Close(); err != nil {
		os.Remove(tmp.Name())
		return err
	}
	return os.Rename(tmp.Name(), p)
}

// ---------------------------------------------------------------------
// Memory store

// MemStore is an in-process BlobStore for tests and in-process fleets.
type MemStore struct {
	mu sync.RWMutex
	m  map[string][]byte
}

// NewMemStore returns an empty MemStore.
func NewMemStore() *MemStore {
	return &MemStore{m: make(map[string][]byte)}
}

// Get returns a copy of the blob for key.
func (s *MemStore) Get(key string) ([]byte, error) {
	s.mu.RLock()
	data, ok := s.m[key]
	s.mu.RUnlock()
	if !ok {
		return nil, fmt.Errorf("%s: %w", key, ErrBlobNotFound)
	}
	return append([]byte(nil), data...), nil
}

// Put stores a copy of data under key.
func (s *MemStore) Put(key string, data []byte) error {
	if !validKey(key) {
		return fmt.Errorf("bad blob key %q", key)
	}
	cp := append([]byte(nil), data...)
	s.mu.Lock()
	s.m[key] = cp
	s.mu.Unlock()
	return nil
}

// Len reports the number of stored blobs.
func (s *MemStore) Len() int {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return len(s.m)
}
