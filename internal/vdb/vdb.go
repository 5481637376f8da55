// Package vdb implements the versioned database underlying Aire's local
// repair (§2.1).
//
// Like Warp's versioned database, the store keeps every version of every
// object: normal-operation writes append versions, repair rolls objects back
// by removing versions after a point in time, and re-execution reads the
// store "as of" the replayed request's logical timestamp. Versions carry the
// identity of the request that wrote them so the repair engine can tell
// which writer produced the state a reader observed.
//
// Objects belonging to application-versioned models (the paper's
// AppVersionedModel, §6) are immutable and are never rolled back; the ORM
// layer marks them with PutImmutable.
package vdb

import (
	"fmt"
	"sort"
	"sync"
)

// Key names an object: a model (table) plus an object ID.
type Key struct {
	Model string
	ID    string
}

func (k Key) String() string { return k.Model + "/" + k.ID }

// Version is one immutable snapshot of an object's fields.
type Version struct {
	// TS is the logical timestamp of the write (the writing request's
	// execution time on the service's timeline).
	TS int64
	// ReqID identifies the request that performed the write.
	ReqID string
	// Deleted marks a tombstone: the object does not exist at and after TS
	// until a later Put revives it.
	Deleted bool
	// Immutable marks an AppVersionedModel object; such versions survive
	// rollback (§6: "AppVersionedModel objects are not rolled back during
	// repair").
	Immutable bool
	// Fields holds the object's field values.
	Fields map[string]string

	// hash caches the value fingerprint, computed on insert.
	hash uint64
}

// FNV-64a constants, inlined so the hot hashing paths need no hash.Hash64
// allocation per call.
const (
	fnvOffset64 uint64 = 14695981039346656037
	fnvPrime64  uint64 = 1099511628211
)

func fnvString(h uint64, s string) uint64 {
	for i := 0; i < len(s); i++ {
		h = (h ^ uint64(s[i])) * fnvPrime64
	}
	return h
}

func fnvByte(h uint64, b byte) uint64 {
	return (h ^ uint64(b)) * fnvPrime64
}

// Hash returns a compact fingerprint of the version's visible value, used by
// the repair engine's precise read-dependency checks: a reader is affected
// only if the value it would read now differs from the value it read
// originally. Tombstones short-circuit to MissingHash before any work.
func (v Version) Hash() uint64 {
	if v.Deleted {
		return 0
	}
	if v.hash != 0 {
		return v.hash
	}
	// Small field maps (the overwhelmingly common case) sort in a
	// stack-resident array instead of a fresh heap slice per call.
	var kbuf [16]string
	keys := kbuf[:0]
	if len(v.Fields) > len(kbuf) {
		keys = make([]string, 0, len(v.Fields))
	}
	for k := range v.Fields {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	h := fnvOffset64
	for _, k := range keys {
		h = fnvString(h, k)
		h = fnvByte(h, 0)
		h = fnvString(h, v.Fields[k])
		h = fnvByte(h, 1)
	}
	// Ensure a live version never hashes to the "missing" sentinel 0.
	if h == 0 {
		h = 1
	}
	return h
}

// MissingHash is the read-dependency fingerprint recorded when a read found
// no live object.
const MissingHash uint64 = 0

// modelIndex is the per-model secondary index: the sorted member list (every
// object of the model with at least one version) plus an incrementally
// maintained fingerprint of the model's current live scan state. It lets
// IDs/IDsAt/ScanHashAt(Excluding) walk only the model's members instead of
// the whole object map, and answers present-time scan fingerprints in O(1).
type modelIndex struct {
	// ids is the sorted list of member object IDs (live or tombstoned).
	ids []string
	// curFP is the commutative scan fingerprint of the model's present
	// state: the wrapping sum of scanContrib(id, hash) over live members,
	// updated on every Put/Delete/Rollback.
	curFP uint64
	// lastTS is a high-water mark of version timestamps in the model:
	// ScanHashAt(ts >= lastTS) can answer from curFP. Rollback may leave it
	// higher than any remaining version, which only disables the fast path.
	lastTS int64
}

// scanContrib is one member's contribution to a model's scan fingerprint.
// Contributions combine by wrapping addition, so the fingerprint is
// order-independent and can be maintained incrementally under mutation.
func scanContrib(id string, vh uint64) uint64 {
	h := fnvString(fnvOffset64, id)
	h = fnvByte(h, 0)
	for i := 0; i < 8; i++ {
		h = fnvByte(h, byte(vh>>(8*i)))
	}
	return h
}

// Store is a multi-version object store. The zero value is not usable;
// create one with NewStore. Store is safe for concurrent use.
type Store struct {
	mu           sync.RWMutex
	objects      map[Key][]Version // versions sorted by TS ascending
	models       map[string]*modelIndex
	confidential map[Key]bool
	versionBytes int64 // total encoded size of versions ever written (Table 4 "DB" accounting)
	gcBefore     int64
	latestOnly   bool
	// sink observes every mutation for write-ahead logging (see wal.go).
	sink func(Change)
}

// NewStore returns an empty versioned store.
func NewStore() *Store {
	return &Store{
		objects:      make(map[Key][]Version),
		models:       make(map[string]*modelIndex),
		confidential: make(map[Key]bool),
	}
}

// model returns (creating if needed) the model's index. Caller holds mu.
func (s *Store) model(name string) *modelIndex {
	idx := s.models[name]
	if idx == nil {
		idx = &modelIndex{}
		s.models[name] = idx
	}
	return idx
}

// liveContribLocked returns the object's current contribution to its model's
// scan fingerprint (0 if absent or tombstoned). Caller holds mu.
func liveContribLocked(k Key, vs []Version) uint64 {
	if len(vs) == 0 {
		return 0
	}
	last := vs[len(vs)-1]
	if last.Deleted {
		return 0
	}
	return scanContrib(k.ID, last.Hash())
}

// indexInsertLocked adds the object to its model's member list (no-op if
// already present). Caller holds mu.
func (s *Store) indexInsertLocked(k Key) {
	idx := s.model(k.Model)
	i := sort.SearchStrings(idx.ids, k.ID)
	if i < len(idx.ids) && idx.ids[i] == k.ID {
		return
	}
	idx.ids = append(idx.ids, "")
	copy(idx.ids[i+1:], idx.ids[i:])
	idx.ids[i] = k.ID
}

// indexRemoveLocked drops the object from its model's member list (when its
// last version is removed). Caller holds mu.
func (s *Store) indexRemoveLocked(k Key) {
	idx := s.models[k.Model]
	if idx == nil {
		return
	}
	i := sort.SearchStrings(idx.ids, k.ID)
	if i < len(idx.ids) && idx.ids[i] == k.ID {
		idx.ids = append(idx.ids[:i], idx.ids[i+1:]...)
	}
}

// NewStoreLatestOnly returns a store that keeps only the newest version of
// each object, emulating a plain (non-versioned) database. It exists solely
// as the "without Aire" baseline of the Table 4 overhead experiments;
// rollback and time travel do not work on it.
func NewStoreLatestOnly() *Store {
	s := NewStore()
	s.latestOnly = true
	return s
}

// approxSize estimates the storage footprint of a version, mirroring the
// paper's per-request database checkpoint accounting (Table 4).
func approxSize(k Key, fields map[string]string) int64 {
	n := int64(len(k.Model) + len(k.ID) + 16)
	for f, v := range fields {
		n += int64(len(f) + len(v) + 2)
	}
	return n
}

// Put appends a new version of the object at timestamp ts, written by reqID.
// Writes must not travel into the past: ts must be >= the newest existing
// version's timestamp. Multiple writes by the same request at the same
// timestamp coalesce into one version (last write wins within a request).
func (s *Store) Put(k Key, fields map[string]string, ts int64, reqID string) error {
	return s.put(k, fields, ts, reqID, false, false)
}

// Delete appends a tombstone version at ts.
func (s *Store) Delete(k Key, ts int64, reqID string) error {
	return s.put(k, nil, ts, reqID, true, false)
}

// PutImmutable writes an AppVersionedModel object: exactly one version that
// survives rollback. Writing an existing immutable key with identical fields
// is a no-op; with different fields it is an error (immutable objects cannot
// change — the application must mint a fresh ID, §5.2).
func (s *Store) PutImmutable(k Key, fields map[string]string, ts int64, reqID string) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if vs := s.objects[k]; len(vs) > 0 {
		old := vs[len(vs)-1]
		if !old.Immutable {
			return fmt.Errorf("vdb: %v exists as a mutable object", k)
		}
		if old.Hash() == (Version{Fields: fields}).Hash() {
			return nil
		}
		return fmt.Errorf("vdb: immutable object %v already exists with different value", k)
	}
	nv := Version{TS: ts, ReqID: reqID, Immutable: true, Fields: copyFields(fields)}
	nv.hash = nv.Hash()
	s.objects[k] = []Version{nv}
	s.versionBytes += approxSize(k, fields)
	s.indexInsertLocked(k)
	idx := s.model(k.Model)
	idx.curFP += scanContrib(k.ID, nv.Hash())
	if ts > idx.lastTS {
		idx.lastTS = ts
	}
	s.emitPutLocked(k, nv)
	return nil
}

func (s *Store) put(k Key, fields map[string]string, ts int64, reqID string, deleted, immutable bool) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	vs := s.objects[k]
	oldContrib := liveContribLocked(k, vs)
	if s.latestOnly && len(vs) > 0 && !vs[len(vs)-1].Immutable {
		vs = vs[:0] // plain-database semantics: overwrite in place
	}
	if len(vs) > 0 {
		last := vs[len(vs)-1]
		if last.Immutable {
			return fmt.Errorf("vdb: cannot overwrite immutable object %v", k)
		}
		if ts < last.TS {
			return fmt.Errorf("vdb: write into the past: %v at ts %d < latest %d", k, ts, last.TS)
		}
		if ts == last.TS && last.ReqID == reqID {
			// Same request overwriting its own write: coalesce.
			nv := Version{TS: ts, ReqID: reqID, Deleted: deleted, Fields: copyFields(fields)}
			nv.hash = nv.Hash()
			vs[len(vs)-1] = nv
			s.versionBytes += approxSize(k, fields)
			s.finishPutLocked(k, nv, oldContrib)
			s.emitPutLocked(k, nv)
			return nil
		}
		if ts == last.TS {
			return fmt.Errorf("vdb: conflicting writes to %v at ts %d by %s and %s", k, ts, last.ReqID, reqID)
		}
	}
	nv := Version{TS: ts, ReqID: reqID, Deleted: deleted, Fields: copyFields(fields)}
	nv.hash = nv.Hash()
	s.objects[k] = append(vs, nv)
	s.versionBytes += approxSize(k, fields)
	s.finishPutLocked(k, nv, oldContrib)
	s.emitPutLocked(k, nv)
	return nil
}

// finishPutLocked maintains the model index after a successful write: the
// member list gains the object on first write, and the current-scan
// fingerprint swaps the object's old live contribution for the new one.
// Caller holds mu.
func (s *Store) finishPutLocked(k Key, nv Version, oldContrib uint64) {
	s.indexInsertLocked(k)
	idx := s.model(k.Model)
	idx.curFP -= oldContrib
	if !nv.Deleted {
		idx.curFP += scanContrib(k.ID, nv.Hash())
	}
	if nv.TS > idx.lastTS {
		idx.lastTS = nv.TS
	}
}

func copyFields(m map[string]string) map[string]string {
	c := make(map[string]string, len(m))
	for k, v := range m {
		c[k] = v
	}
	return c
}

// Get returns the newest live version of the object.
func (s *Store) Get(k Key) (Version, bool) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	vs := s.objects[k]
	if len(vs) == 0 {
		return Version{}, false
	}
	v := vs[len(vs)-1]
	if v.Deleted {
		return Version{}, false
	}
	return v.clone(), true
}

// GetAt returns the version of the object visible at timestamp ts: the
// newest version with TS <= ts. It reports false if the object did not exist
// or was deleted at ts.
//
// Unlike Get, GetAt does not copy: the returned Fields map is the stored
// version's own and must be treated as read-only. Stored maps are never
// mutated in place (every write installs a fresh copy), so the snapshot
// stays valid after later writes or rollbacks.
func (s *Store) GetAt(k Key, ts int64) (Version, bool) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	vs := s.objects[k]
	i := sort.Search(len(vs), func(i int) bool { return vs[i].TS > ts })
	if i == 0 {
		return Version{}, false
	}
	v := vs[i-1]
	if v.Deleted {
		return Version{}, false
	}
	return v, true
}

// HashAt returns the value fingerprint of the object at ts (MissingHash if
// absent). This is the fast path used by precise read-dependency checks.
func (s *Store) HashAt(k Key, ts int64) uint64 {
	s.mu.RLock()
	defer s.mu.RUnlock()
	vs := s.objects[k]
	i := sort.Search(len(vs), func(i int) bool { return vs[i].TS > ts })
	if i == 0 || vs[i-1].Deleted {
		return MissingHash
	}
	return vs[i-1].Hash()
}

// HashAtExcluding is HashAt but ignores the version written by reqID itself.
// The repair engine evaluates a request's read dependencies with its own
// writes masked out: a read performed before the request's own write
// observed the previous version, and comparing against the post-write state
// would make every read-modify-write request look permanently affected.
func (s *Store) HashAtExcluding(k Key, ts int64, reqID string) uint64 {
	s.mu.RLock()
	defer s.mu.RUnlock()
	vs := s.objects[k]
	i := sort.Search(len(vs), func(i int) bool { return vs[i].TS > ts })
	// A request's writes coalesce into a single version, so stepping back
	// one version past our own write suffices.
	if i > 0 && vs[i-1].ReqID == reqID && !vs[i-1].Immutable {
		i--
	}
	if i == 0 || vs[i-1].Deleted {
		return MissingHash
	}
	return vs[i-1].Hash()
}

// hashAtLocked is HashAt without locking. Caller holds mu (read or write).
func (s *Store) hashAtLocked(k Key, ts int64) uint64 {
	vs := s.objects[k]
	i := sort.Search(len(vs), func(i int) bool { return vs[i].TS > ts })
	if i == 0 || vs[i-1].Deleted {
		return MissingHash
	}
	return vs[i-1].Hash()
}

// hashAtExcludingLocked is HashAtExcluding without locking. Caller holds mu.
func (s *Store) hashAtExcludingLocked(k Key, ts int64, reqID string) uint64 {
	vs := s.objects[k]
	i := sort.Search(len(vs), func(i int) bool { return vs[i].TS > ts })
	if i > 0 && vs[i-1].ReqID == reqID && !vs[i-1].Immutable {
		i--
	}
	if i == 0 || vs[i-1].Deleted {
		return MissingHash
	}
	return vs[i-1].Hash()
}

// ScanHashAtExcluding is ScanHashAt with reqID's own versions masked out,
// for the same reason as HashAtExcluding: a scan dependency must fingerprint
// the state the request observed from *others*, which replay regenerates
// deterministically.
//
// The whole fingerprint is computed over the model's member index under one
// read lock: it is a consistent snapshot (concurrent writers cannot
// interleave mid-fingerprint) and costs O(members of model), not a walk and
// sort of the entire object map plus one lock acquisition per member.
func (s *Store) ScanHashAtExcluding(model string, ts int64, reqID string) uint64 {
	s.mu.RLock()
	defer s.mu.RUnlock()
	var fp uint64
	idx := s.models[model]
	if idx == nil {
		return 0
	}
	for _, id := range idx.ids {
		vh := s.hashAtExcludingLocked(Key{Model: model, ID: id}, ts, reqID)
		if vh == MissingHash {
			continue
		}
		fp += scanContrib(id, vh)
	}
	return fp
}

// ScanHashAtExcludingLinear is the pre-index reference implementation of
// ScanHashAtExcluding: a full object-map walk with per-member lock
// round-trips. Retained for the randomized equivalence tests and the
// before/after benchmarks; production code uses ScanHashAtExcluding.
func (s *Store) ScanHashAtExcludingLinear(model string, ts int64, reqID string) uint64 {
	s.mu.RLock()
	ids := make([]string, 0, 16)
	for k := range s.objects {
		if k.Model == model {
			ids = append(ids, k.ID)
		}
	}
	s.mu.RUnlock()
	sort.Strings(ids)
	var fp uint64
	for _, id := range ids {
		vh := s.HashAtExcluding(Key{Model: model, ID: id}, ts, reqID)
		if vh == MissingHash {
			continue
		}
		fp += scanContrib(id, vh)
	}
	return fp
}

// HasVersion reports whether the object still has the exact version written
// at ts by reqID. The repair engine uses this to detect writes that were
// rolled back and must be re-executed ("queries that might have modified the
// rows that have been rolled back", §2.1).
func (s *Store) HasVersion(k Key, ts int64, reqID string) bool {
	s.mu.RLock()
	defer s.mu.RUnlock()
	for _, v := range s.objects[k] {
		if v.TS == ts && v.ReqID == reqID {
			return true
		}
		if v.TS > ts {
			break
		}
	}
	return false
}

// Rollback removes all mutable versions of the object with TS > ts and
// returns how many were removed. Immutable versions survive.
func (s *Store) Rollback(k Key, ts int64) int {
	s.mu.Lock()
	defer s.mu.Unlock()
	removed := s.rollbackLocked(k, ts)
	if removed > 0 {
		s.emitLocked(Change{Kind: "rollback", Key: k, TS: ts})
	}
	return removed
}

func (s *Store) rollbackLocked(k Key, ts int64) int {
	vs := s.objects[k]
	if len(vs) == 0 {
		return 0
	}
	if vs[len(vs)-1].Immutable {
		return 0
	}
	i := sort.Search(len(vs), func(i int) bool { return vs[i].TS > ts })
	removed := len(vs) - i
	if removed > 0 {
		idx := s.model(k.Model)
		idx.curFP -= liveContribLocked(k, vs)
		s.objects[k] = vs[:i]
		if i == 0 {
			delete(s.objects, k)
			s.indexRemoveLocked(k)
		} else {
			idx.curFP += liveContribLocked(k, vs[:i])
		}
	}
	return removed
}

// IDs returns the sorted IDs of all live objects of the model at present.
// The model's member index is already sorted, so this walks only the
// model's members and performs no sort.
func (s *Store) IDs(model string) []string {
	s.mu.RLock()
	defer s.mu.RUnlock()
	idx := s.models[model]
	if idx == nil {
		return nil
	}
	var ids []string
	for _, id := range idx.ids {
		vs := s.objects[Key{Model: model, ID: id}]
		if len(vs) == 0 || vs[len(vs)-1].Deleted {
			continue
		}
		ids = append(ids, id)
	}
	return ids
}

// IDsAt returns the sorted IDs of all objects of the model live at ts.
func (s *Store) IDsAt(model string, ts int64) []string {
	s.mu.RLock()
	defer s.mu.RUnlock()
	idx := s.models[model]
	if idx == nil {
		return nil
	}
	var ids []string
	for _, id := range idx.ids {
		vs := s.objects[Key{Model: model, ID: id}]
		i := sort.Search(len(vs), func(i int) bool { return vs[i].TS > ts })
		if i == 0 || vs[i-1].Deleted {
			continue
		}
		ids = append(ids, id)
	}
	return ids
}

// IDsAtLinear is the pre-index reference implementation of IDsAt (full map
// walk plus sort), retained for equivalence tests.
func (s *Store) IDsAtLinear(model string, ts int64) []string {
	s.mu.RLock()
	defer s.mu.RUnlock()
	var ids []string
	for k, vs := range s.objects {
		if k.Model != model {
			continue
		}
		i := sort.Search(len(vs), func(i int) bool { return vs[i].TS > ts })
		if i == 0 || vs[i-1].Deleted {
			continue
		}
		ids = append(ids, k.ID)
	}
	sort.Strings(ids)
	return ids
}

// ScanHashAt fingerprints the set of live (id, value-hash) pairs of a model
// at ts. Scan dependencies recorded by list queries compare this fingerprint
// during repair: a scan is affected only if membership or any member's value
// changed.
//
// Fingerprints combine member contributions by wrapping addition, so the
// model's present-time fingerprint is answered in O(1) from the
// incrementally maintained index; historical timestamps walk the member
// list under a single lock.
func (s *Store) ScanHashAt(model string, ts int64) uint64 {
	s.mu.RLock()
	defer s.mu.RUnlock()
	idx := s.models[model]
	if idx == nil {
		return 0
	}
	if ts >= idx.lastTS {
		// Every version in the model is visible at ts: the maintained
		// current fingerprint is the answer.
		return idx.curFP
	}
	var fp uint64
	for _, id := range idx.ids {
		vh := s.hashAtLocked(Key{Model: model, ID: id}, ts)
		if vh == MissingHash {
			continue
		}
		fp += scanContrib(id, vh)
	}
	return fp
}

// ScanHashAtLinear is the pre-index reference implementation of ScanHashAt
// (full map walk, sort, per-member lock round-trips), retained for the
// randomized equivalence tests.
func (s *Store) ScanHashAtLinear(model string, ts int64) uint64 {
	ids := s.IDsAtLinear(model, ts)
	var fp uint64
	for _, id := range ids {
		vh := s.HashAt(Key{Model: model, ID: id}, ts)
		if vh == MissingHash {
			continue
		}
		fp += scanContrib(id, vh)
	}
	return fp
}

// Versions returns a copy of all versions of the object (oldest first).
func (s *Store) Versions(k Key) []Version {
	s.mu.RLock()
	defer s.mu.RUnlock()
	vs := s.objects[k]
	out := make([]Version, len(vs))
	for i, v := range vs {
		out[i] = v.clone()
	}
	return out
}

func (v Version) clone() Version {
	c := v
	c.Fields = copyFields(v.Fields)
	return c
}

// MarkConfidential flags an object for leak reporting (§9): after repair,
// Aire reports requests that read the object during original execution but
// not during replay.
func (s *Store) MarkConfidential(k Key) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.confidential[k] = true
}

// IsConfidential reports whether the object was marked confidential.
func (s *Store) IsConfidential(k Key) bool {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.confidential[k]
}

// VersionBytes returns the cumulative encoded size of all versions ever
// written, the equivalent of the paper's per-request database checkpoint
// storage cost (Table 4).
func (s *Store) VersionBytes() int64 {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.versionBytes
}

// IndexBytes estimates the memory footprint of the store's secondary
// index layer: the per-model sorted member lists plus the incrementally
// maintained scan fingerprints. Table 4's "DB" accounting (VersionBytes)
// deliberately mirrors the paper and ignores this overhead; IndexBytes
// makes it visible so storage-cost claims can include it (ROADMAP: "index
// memory is unaccounted"). The estimate mirrors approxSize's spirit —
// string bytes plus fixed per-slot overheads — not Go allocator truth.
func (s *Store) IndexBytes() int64 {
	s.mu.RLock()
	defer s.mu.RUnlock()
	var n int64
	for name, idx := range s.models {
		// map slot + model name + modelIndex (slice header, curFP, lastTS).
		n += int64(len(name)) + 16 + 40
		for _, id := range idx.ids {
			n += int64(len(id)) + 16 // member slot: string header + bytes
		}
	}
	return n
}

// ObjectCount returns the number of objects with at least one version.
func (s *Store) ObjectCount() int {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return len(s.objects)
}

// GC discards versions older than beforeTS (§9): for every object, versions
// with TS < beforeTS are squashed into the single newest such version, which
// becomes the object's base state. After GC the store cannot answer GetAt
// queries before beforeTS; GCBefore exposes the horizon so the repair
// controller can refuse repairs of garbage-collected requests.
func (s *Store) GC(beforeTS int64) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.gcLocked(beforeTS)
	s.emitLocked(Change{Kind: "gc", TS: beforeTS})
}

func (s *Store) gcLocked(beforeTS int64) {
	if beforeTS > s.gcBefore {
		s.gcBefore = beforeTS
	}
	for k, vs := range s.objects {
		i := sort.Search(len(vs), func(i int) bool { return vs[i].TS >= beforeTS })
		if i <= 1 {
			continue
		}
		// Keep vs[i-1] as the base, drop everything before it.
		kept := append([]Version(nil), vs[i-1:]...)
		s.objects[k] = kept
	}
}

// GCBefore returns the garbage-collection horizon (0 if GC never ran).
func (s *Store) GCBefore() int64 {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.gcBefore
}

// ObjectDump is the serializable state of one object.
type ObjectDump struct {
	Key      Key       `json:"key"`
	Versions []Version `json:"versions"`
}

// Dump exports every object's version history in deterministic (key) order,
// for persistence.
func (s *Store) Dump() []ObjectDump {
	s.mu.RLock()
	defer s.mu.RUnlock()
	out := make([]ObjectDump, 0, len(s.objects))
	for k, vs := range s.objects {
		cp := make([]Version, len(vs))
		for i, v := range vs {
			cp[i] = v.clone()
		}
		out = append(out, ObjectDump{Key: k, Versions: cp})
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Key.Model != out[j].Key.Model {
			return out[i].Key.Model < out[j].Key.Model
		}
		return out[i].Key.ID < out[j].Key.ID
	})
	return out
}

// Restore loads a Dump into an empty store, recomputing cached hashes,
// storage accounting, and the per-model member indexes and scan
// fingerprints.
func (s *Store) Restore(dump []ObjectDump) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if len(s.objects) != 0 {
		return fmt.Errorf("vdb: Restore requires an empty store")
	}
	for _, od := range dump {
		vs := make([]Version, len(od.Versions))
		for i, v := range od.Versions {
			v.Fields = copyFields(v.Fields)
			v.hash = 0
			v.hash = v.Hash()
			vs[i] = v
			s.versionBytes += approxSize(od.Key, v.Fields)
		}
		if len(vs) == 0 {
			continue
		}
		s.objects[od.Key] = vs
		s.indexInsertLocked(od.Key)
		idx := s.model(od.Key.Model)
		idx.curFP += liveContribLocked(od.Key, vs)
		if last := vs[len(vs)-1].TS; last > idx.lastTS {
			idx.lastTS = last
		}
	}
	return nil
}
