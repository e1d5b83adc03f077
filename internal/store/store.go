// Package store implements a crash-safe, content-addressed on-disk result
// store: immutable records keyed by the service's canonical job key, written
// with write-temp + fsync + atomic-rename so a record is either durably
// complete or absent, and verified by SHA-256 on every read so a torn,
// truncated or bit-rotted entry is quarantined and reported as a miss —
// never served. The fail-closed verdict contract extends to storage: the
// only two answers the store ever gives are "here is the exact payload that
// was fsynced" and "no entry".
//
// Layout under the store directory:
//
//	objects/<key>      one record per result (see record layout below)
//	tmp/               in-progress writes; anything here after a crash is
//	                   garbage by construction and removed at Open
//	quarantine/        records that failed validation, moved aside with a
//	                   timestamp suffix for post-mortem inspection
//
// Record layout: a fixed magic string, the SHA-256 of the payload, the
// payload length as 8 little-endian bytes, then the payload — a JSON
// envelope {"key": ..., "report": ...} binding the record to its key so a
// renamed or cross-copied file cannot answer for a different job.
//
// Durability contract: once Put returns nil the record survives kill -9 and
// power loss (file fsynced before the rename, directory fsynced after).
// A crash at any other point leaves either the old state or a tmp/ orphan;
// neither is ever visible to Get. Open re-validates every surviving record,
// so recovery after an unclean shutdown indexes exactly the set of records
// whose Put completed.
package store

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"
)

var magic = []byte("glift-store-1\n")

// headerSize is the fixed prefix before the payload: magic, SHA-256,
// 8-byte length.
const headerSize = len("glift-store-1\n") + sha256.Size + 8

// ErrFull reports a Put whose record cannot fit the configured byte cap
// even after evicting every other entry. The caller keeps its in-memory
// copy; the result is simply not durable.
var ErrFull = errors.New("store: record exceeds capacity")

// Options tunes a Store.
type Options struct {
	// MaxBytes caps the total size of objects/ (0: unbounded). When a Put
	// would exceed the cap, the oldest records are evicted first; a record
	// larger than the whole cap fails with ErrFull.
	MaxBytes int64
	// WriteDelay is a chaos-test hook: it is inserted mid-payload during
	// Put, before the fsync and rename, widening the window in which a
	// kill -9 lands on an in-progress write. Production use leaves it 0.
	WriteDelay time.Duration
}

// Stats counts store activity since Open. Snapshot via Store.Stats.
type Stats struct {
	// Recovered is the number of valid records indexed at Open.
	Recovered int64
	// TmpCleaned is the number of abandoned in-progress writes removed at
	// Open (each one is a crash that the atomic-rename protocol absorbed).
	TmpCleaned int64
	// Quarantined counts records that failed validation (at Open or on a
	// later Get) and were moved to quarantine/ instead of being served.
	Quarantined int64
	Puts        int64
	PutErrors   int64
	Evictions   int64
	Hits        int64
	Misses      int64
}

type entry struct {
	size int64
}

// Store is the on-disk result store. All methods are safe for concurrent
// use; disk operations are serialized, which is acceptable because records
// are small (one analysis report) and Get is only on the miss path of the
// in-memory cache layered above.
type Store struct {
	dir  string
	opts Options

	mu    sync.Mutex
	index map[string]entry
	order []string // eviction order: recovery mtime order, then Put order
	bytes int64
	stats Stats
}

// Open creates the store layout under dir if needed, removes abandoned
// in-progress writes, validates and indexes every surviving record
// (quarantining any that fail), and enforces the byte cap.
func Open(dir string, opts Options) (*Store, error) {
	s := &Store{dir: dir, opts: opts, index: make(map[string]entry)}
	for _, sub := range []string{s.objectsDir(), s.tmpDir(), s.quarantineDir()} {
		if err := os.MkdirAll(sub, 0o755); err != nil {
			return nil, fmt.Errorf("store: %w", err)
		}
	}
	if err := s.recover(); err != nil {
		return nil, err
	}
	return s, nil
}

func (s *Store) objectsDir() string    { return filepath.Join(s.dir, "objects") }
func (s *Store) tmpDir() string        { return filepath.Join(s.dir, "tmp") }
func (s *Store) quarantineDir() string { return filepath.Join(s.dir, "quarantine") }

// Dir returns the store's root directory.
func (s *Store) Dir() string { return s.dir }

// recover scans objects/, validating every record: valid ones are indexed
// in modification-time order (so eviction age survives restarts), invalid
// ones are quarantined. tmp/ is cleared — an in-progress write that never
// reached its rename is garbage by construction.
func (s *Store) recover() error {
	tmps, err := os.ReadDir(s.tmpDir())
	if err != nil {
		return fmt.Errorf("store: %w", err)
	}
	for _, e := range tmps {
		if err := os.Remove(filepath.Join(s.tmpDir(), e.Name())); err == nil {
			s.stats.TmpCleaned++
		}
	}

	ents, err := os.ReadDir(s.objectsDir())
	if err != nil {
		return fmt.Errorf("store: %w", err)
	}
	type candidate struct {
		key   string
		size  int64
		mtime time.Time
	}
	var cands []candidate
	for _, e := range ents {
		if e.IsDir() {
			continue
		}
		info, err := e.Info()
		if err != nil {
			continue // raced with a concurrent delete; nothing to index
		}
		cands = append(cands, candidate{key: e.Name(), size: info.Size(), mtime: info.ModTime()})
	}
	sort.Slice(cands, func(i, j int) bool { return cands[i].mtime.Before(cands[j].mtime) })

	for _, c := range cands {
		if !validKey(c.key) {
			s.quarantineLocked(c.key)
			continue
		}
		if _, err := s.readRecord(c.key); err != nil {
			s.quarantineLocked(c.key)
			continue
		}
		s.index[c.key] = entry{size: c.size}
		s.order = append(s.order, c.key)
		s.bytes += c.size
		s.stats.Recovered++
	}
	// A cap smaller than the surviving set (the operator shrank it, or the
	// process crashed mid-eviction) is enforced now rather than lazily.
	s.evictForLocked(0)
	return nil
}

// validKey admits only keys that are safe flat filenames: the service's
// hex-encoded SHA-256 job keys pass, path separators and dot-files do not.
func validKey(key string) bool {
	if key == "" || len(key) > 128 {
		return false
	}
	for _, r := range key {
		switch {
		case r >= 'a' && r <= 'z', r >= 'A' && r <= 'Z', r >= '0' && r <= '9', r == '-', r == '_':
		default:
			return false
		}
	}
	return true
}

// envelope binds a stored payload to its key.
type envelope struct {
	Key    string          `json:"key"`
	Report json.RawMessage `json:"report"`
}

// Get returns the validated report payload for key, or reports a miss.
// A record that fails any integrity check — bad magic, wrong length,
// checksum mismatch, malformed envelope, or an envelope bound to a
// different key — is quarantined and reported as a miss, never served.
func (s *Store) Get(key string) (json.RawMessage, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if _, ok := s.index[key]; !ok {
		s.stats.Misses++
		return nil, false
	}
	report, err := s.readRecord(key)
	if err != nil {
		s.dropLocked(key)
		s.quarantineLocked(key)
		s.stats.Misses++
		return nil, false
	}
	s.stats.Hits++
	return report, true
}

// readRecord reads and fully validates one record, returning its report
// payload.
func (s *Store) readRecord(key string) (json.RawMessage, error) {
	data, err := os.ReadFile(filepath.Join(s.objectsDir(), key))
	if err != nil {
		return nil, err
	}
	if len(data) < headerSize {
		return nil, fmt.Errorf("store: %s: truncated header (%d bytes)", key, len(data))
	}
	if !bytes.Equal(data[:len(magic)], magic) {
		return nil, fmt.Errorf("store: %s: bad magic", key)
	}
	var sum [sha256.Size]byte
	copy(sum[:], data[len(magic):len(magic)+sha256.Size])
	n := binary.LittleEndian.Uint64(data[len(magic)+sha256.Size : headerSize])
	payload := data[headerSize:]
	if uint64(len(payload)) != n {
		return nil, fmt.Errorf("store: %s: truncated payload (%d of %d bytes)", key, len(payload), n)
	}
	if sha256.Sum256(payload) != sum {
		return nil, fmt.Errorf("store: %s: checksum mismatch", key)
	}
	var env envelope
	if err := json.Unmarshal(payload, &env); err != nil {
		return nil, fmt.Errorf("store: %s: bad envelope: %v", key, err)
	}
	if env.Key != key {
		return nil, fmt.Errorf("store: %s: envelope bound to key %s", key, env.Key)
	}
	return env.Report, nil
}

// Put durably records the report payload under key: the record is written
// to tmp/, fsynced, atomically renamed into objects/, and the directory
// fsynced. When Put returns nil the record survives an immediate kill -9.
// Overwrites are allowed (records are content-addressed, so a rewrite
// carries identical bytes) and refresh the entry's eviction age.
func (s *Store) Put(key string, report []byte) error {
	if !validKey(key) {
		return fmt.Errorf("store: invalid key %q", key)
	}
	payload, err := json.Marshal(envelope{Key: key, Report: report})
	if err != nil {
		return fmt.Errorf("store: %w", err)
	}
	recordSize := int64(headerSize + len(payload))

	s.mu.Lock()
	defer s.mu.Unlock()
	if s.opts.MaxBytes > 0 && recordSize > s.opts.MaxBytes {
		s.stats.PutErrors++
		return ErrFull
	}
	if old, ok := s.index[key]; ok {
		// Replace in place: retire the old accounting first so the eviction
		// loop below never counts the record twice.
		s.bytes -= old.size
		delete(s.index, key)
		s.removeOrderLocked(key)
	}
	s.evictForLocked(recordSize)

	if err := s.writeRecordLocked(key, payload); err != nil {
		s.stats.PutErrors++
		return err
	}
	s.index[key] = entry{size: recordSize}
	s.order = append(s.order, key)
	s.bytes += recordSize
	s.stats.Puts++
	return nil
}

// writeRecordLocked performs the write-temp + fsync + rename + dir-fsync
// protocol for one record.
func (s *Store) writeRecordLocked(key string, payload []byte) error {
	f, err := os.CreateTemp(s.tmpDir(), key+".*")
	if err != nil {
		return fmt.Errorf("store: %w", err)
	}
	tmpName := f.Name()
	cleanup := func() {
		f.Close()
		os.Remove(tmpName)
	}

	var sum = sha256.Sum256(payload)
	var lenBuf [8]byte
	binary.LittleEndian.PutUint64(lenBuf[:], uint64(len(payload)))
	half := len(payload) / 2
	for _, chunk := range [][]byte{magic, sum[:], lenBuf[:], payload[:half]} {
		if _, err := f.Write(chunk); err != nil {
			cleanup()
			return fmt.Errorf("store: %w", err)
		}
	}
	if s.opts.WriteDelay > 0 {
		// Chaos hook: hold the record half-written so kill -9 tests land
		// inside the window the protocol must make invisible.
		time.Sleep(s.opts.WriteDelay)
	}
	if _, err := f.Write(payload[half:]); err != nil {
		cleanup()
		return fmt.Errorf("store: %w", err)
	}
	if err := f.Sync(); err != nil {
		cleanup()
		return fmt.Errorf("store: %w", err)
	}
	if err := f.Close(); err != nil {
		os.Remove(tmpName)
		return fmt.Errorf("store: %w", err)
	}
	if err := os.Rename(tmpName, filepath.Join(s.objectsDir(), key)); err != nil {
		os.Remove(tmpName)
		return fmt.Errorf("store: %w", err)
	}
	syncDir(s.objectsDir())
	return nil
}

// syncDir fsyncs a directory so a completed rename is durable. Best-effort:
// on filesystems that reject directory fsync the rename is still atomic,
// only its durability lags to the next journal flush.
func syncDir(dir string) {
	d, err := os.Open(dir)
	if err != nil {
		return
	}
	d.Sync() //nolint:errcheck // see above
	d.Close()
}

// evictForLocked removes oldest records until need more bytes fit under the
// cap.
func (s *Store) evictForLocked(need int64) {
	if s.opts.MaxBytes <= 0 {
		return
	}
	for s.bytes+need > s.opts.MaxBytes && len(s.order) > 0 {
		oldest := s.order[0]
		s.order = s.order[1:]
		if e, ok := s.index[oldest]; ok {
			delete(s.index, oldest)
			s.bytes -= e.size
			os.Remove(filepath.Join(s.objectsDir(), oldest)) //nolint:errcheck // already unindexed
			s.stats.Evictions++
		}
	}
}

// dropLocked removes key from the index without touching the file.
func (s *Store) dropLocked(key string) {
	if e, ok := s.index[key]; ok {
		delete(s.index, key)
		s.bytes -= e.size
		s.removeOrderLocked(key)
	}
}

func (s *Store) removeOrderLocked(key string) {
	for i, k := range s.order {
		if k == key {
			s.order = append(s.order[:i], s.order[i+1:]...)
			return
		}
	}
}

// quarantineLocked moves a failed record aside for post-mortem inspection;
// if the move itself fails the record is deleted, because a record that
// failed validation must never be picked up by a later recovery.
func (s *Store) quarantineLocked(key string) {
	src := filepath.Join(s.objectsDir(), key)
	dst := filepath.Join(s.quarantineDir(), fmt.Sprintf("%s.%d", key, time.Now().UnixNano()))
	if err := os.Rename(src, dst); err != nil {
		os.Remove(src) //nolint:errcheck // removal is the fallback, not a guarantee we can check
	}
	s.stats.Quarantined++
}

// Quarantine moves a record aside and drops it from the index. Callers use
// it when a record passes the store's byte-level checks but fails a
// higher-level validation (e.g. the service's report reconstruction) — the
// same never-serve-it-again contract as an internal checksum failure.
func (s *Store) Quarantine(key string) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.dropLocked(key)
	s.quarantineLocked(key)
}

// Len returns the number of indexed records.
func (s *Store) Len() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.index)
}

// Bytes returns the total indexed record size.
func (s *Store) Bytes() int64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.bytes
}

// Stats snapshots the activity counters.
func (s *Store) Stats() Stats {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.stats
}
