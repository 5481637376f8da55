// Package orm provides the model layer applications use to store state,
// playing the role Django's ORM plays in the paper's prototype (§6).
//
// Every read and write goes through a Tx bound to the currently executing
// request. The Tx transparently versions writes in the underlying vdb store
// and records read, scan, and write dependencies into the request's repair
// log record — the two interposition points Aire needs ("we modified the
// Django ORM to intercept the application's reads and writes to model
// objects").
//
// Models registered as versioned correspond to the paper's
// AppVersionedModel: their objects are immutable, are not rolled back during
// repair, and carry no dependency tracking (§6, "Repair for a versioned
// API").
package orm

import (
	"fmt"
	"sort"
	"strconv"
	"sync"

	"aire/internal/repairlog"
	"aire/internal/vdb"
)

// Schema records the models an application declared.
type Schema struct {
	mu        sync.RWMutex
	models    map[string]bool
	versioned map[string]bool
}

// NewSchema returns an empty schema.
func NewSchema() *Schema {
	return &Schema{models: make(map[string]bool), versioned: make(map[string]bool)}
}

// Register declares a regular (rollback-able, dependency-tracked) model.
func (s *Schema) Register(model string) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.models[model] = true
}

// RegisterVersioned declares an AppVersionedModel: immutable objects exempt
// from rollback and dependency tracking.
func (s *Schema) RegisterVersioned(model string) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.models[model] = true
	s.versioned[model] = true
}

// IsVersioned reports whether the model was registered as versioned.
func (s *Schema) IsVersioned(model string) bool {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.versioned[model]
}

// Models returns the sorted names of all registered models.
func (s *Schema) Models() []string {
	s.mu.RLock()
	defer s.mu.RUnlock()
	out := make([]string, 0, len(s.models))
	for m := range s.models {
		out = append(out, m)
	}
	sort.Strings(out)
	return out
}

// Obj is one model object: an ID plus string-valued fields.
type Obj struct {
	ID string
	// F is shared with the store's immutable version snapshot (see
	// vdb.Store.GetAt): it is read-only. To change an object, build a new
	// map and Put it, or use Tx.Update, which copies.
	F map[string]string
}

// Get returns the named field ("" if absent).
func (o Obj) Get(field string) string { return o.F[field] }

// Int returns the named field parsed as an integer (0 if absent/invalid).
func (o Obj) Int(field string) int {
	n, _ := strconv.Atoi(o.F[field])
	return n
}

// Bool returns whether the named field equals "true".
func (o Obj) Bool(field string) bool { return o.F[field] == "true" }

// Fields builds a field map from key/value pairs.
func Fields(kv ...string) map[string]string {
	if len(kv)%2 != 0 {
		panic("orm: Fields requires key/value pairs")
	}
	m := make(map[string]string, len(kv)/2)
	for i := 0; i < len(kv); i += 2 {
		m[kv[i]] = kv[i+1]
	}
	return m
}

// Deps is the sink a Tx records dependencies into; it aliases the slices of
// the executing request's log record.
type Deps struct {
	Reads  []repairlog.ReadDep
	Scans  []repairlog.ScanDep
	Writes []repairlog.WriteDep
}

// Tx is a request-scoped handle on the versioned store.
//
// Reads observe the store as of At (the executing request's logical
// timestamp); writes create versions at At attributed to ReqID. During
// replay, a write whose key has newer versions first rolls those versions
// back — the writers that produced them are re-executed later by the repair
// engine (rollback-redo, §2.1).
type Tx struct {
	Store    *vdb.Store
	Schema   *Schema
	At       int64
	ReqID    string
	ReadOnly bool
	// Deps, when non-nil, accumulates dependency records.
	Deps *Deps
}

// Snapshot returns a read-only Tx at timestamp at, used by repair access
// control to inspect state as of the original request (§4).
func Snapshot(store *vdb.Store, schema *Schema, at int64) *Tx {
	return &Tx{Store: store, Schema: schema, At: at, ReadOnly: true}
}

// Get fetches an object, recording a read dependency.
func (tx *Tx) Get(model, id string) (Obj, bool) {
	k := vdb.Key{Model: model, ID: id}
	v, ok := tx.Store.GetAt(k, tx.At)
	// Reads of the request's own earlier writes carry no external
	// dependency: deterministic replay regenerates them identically.
	if tx.Deps != nil && !tx.Schema.IsVersioned(model) && !(ok && v.ReqID == tx.ReqID) {
		dep := repairlog.ReadDep{Key: k}
		if ok {
			dep.TS = v.TS
			dep.Hash = v.Hash()
		}
		tx.Deps.Reads = append(tx.Deps.Reads, dep)
	}
	if !ok {
		return Obj{}, false
	}
	return Obj{ID: id, F: v.Fields}, true
}

// Put writes an object, recording a write dependency. For versioned models
// the object becomes immutable.
func (tx *Tx) Put(model, id string, fields map[string]string) error {
	if tx.ReadOnly {
		return fmt.Errorf("orm: write to %s/%s in read-only transaction", model, id)
	}
	k := vdb.Key{Model: model, ID: id}
	if tx.Schema.IsVersioned(model) {
		return tx.Store.PutImmutable(k, fields, tx.At, tx.ReqID)
	}
	// Rollback-redo: writing "at" tx.At removes any newer versions; their
	// writers fail their write-dependency check and re-execute (§2.1).
	tx.Store.Rollback(k, tx.At)
	if err := tx.Store.Put(k, fields, tx.At, tx.ReqID); err != nil {
		return err
	}
	if tx.Deps != nil {
		tx.Deps.Writes = append(tx.Deps.Writes, repairlog.WriteDep{Key: k, TS: tx.At})
	}
	return nil
}

// Delete removes an object (tombstone), recording a write dependency.
func (tx *Tx) Delete(model, id string) error {
	if tx.ReadOnly {
		return fmt.Errorf("orm: delete of %s/%s in read-only transaction", model, id)
	}
	if tx.Schema.IsVersioned(model) {
		return fmt.Errorf("orm: cannot delete immutable versioned object %s/%s", model, id)
	}
	k := vdb.Key{Model: model, ID: id}
	tx.Store.Rollback(k, tx.At)
	if err := tx.Store.Delete(k, tx.At, tx.ReqID); err != nil {
		return err
	}
	if tx.Deps != nil {
		tx.Deps.Writes = append(tx.Deps.Writes, repairlog.WriteDep{Key: k, TS: tx.At})
	}
	return nil
}

// Update mutates an existing object in place via fn; it is a Get followed by
// a Put and records both dependencies. It reports whether the object
// existed.
func (tx *Tx) Update(model, id string, fn func(map[string]string)) (bool, error) {
	o, ok := tx.Get(model, id)
	if !ok {
		return false, nil
	}
	fields := make(map[string]string, len(o.F))
	for k, v := range o.F {
		fields[k] = v
	}
	fn(fields)
	return true, tx.Put(model, id, fields)
}

// List returns all live objects of the model at tx.At, sorted by ID,
// recording a scan dependency over the model.
func (tx *Tx) List(model string) []Obj {
	if tx.Deps != nil && !tx.Schema.IsVersioned(model) {
		tx.Deps.Scans = append(tx.Deps.Scans, repairlog.ScanDep{
			Model: model,
			Hash:  tx.Store.ScanHashAtExcluding(model, tx.At, tx.ReqID),
		})
	}
	ids := tx.Store.IDsAt(model, tx.At)
	out := make([]Obj, 0, len(ids))
	for _, id := range ids {
		v, ok := tx.Store.GetAt(vdb.Key{Model: model, ID: id}, tx.At)
		if !ok {
			continue
		}
		out = append(out, Obj{ID: id, F: v.Fields})
	}
	return out
}

// Select returns the objects of the model matching pred, recording a scan
// dependency (membership of the result can change whenever the model
// changes).
func (tx *Tx) Select(model string, pred func(Obj) bool) []Obj {
	all := tx.List(model)
	out := all[:0:0]
	for _, o := range all {
		if pred(o) {
			out = append(out, o)
		}
	}
	return out
}

// First returns the first object matching pred in ID order.
func (tx *Tx) First(model string, pred func(Obj) bool) (Obj, bool) {
	for _, o := range tx.Select(model, pred) {
		return o, true
	}
	return Obj{}, false
}
