// Package jobs is the durable job store behind the async /v1/jobs
// API: submit → poll → fetch for runs that outlive any sane HTTP
// request. Each job is one directory under the store root holding an
// atomically-written JSON manifest (temp + fsync + rename + dir
// fsync, via faultfs) that journals the job's state transitions, the
// validated request, per-tile completion records and the final
// result, so the store itself is the crash-recovery log: reopening it
// after a kill reconstructs every job, marks the ones caught mid-run
// as interrupted, and hands them back for resumption — their tile
// checkpoints (kept in the same directory) make the resumed run
// byte-identical to an uninterrupted one.
//
// # State machine
//
//	queued ──► running ──► done | failed
//	   │          │
//	   ▼          ▼
//	cancelled  cancelled | interrupted ──► queued (resume)
//
// done, failed and cancelled are terminal. interrupted is the
// recovery state: a crash or graceful shutdown parks running jobs
// there, and resumption re-enqueues them. Every transition is
// journaled in the manifest's history with its timestamp, so a job's
// full lifecycle survives the process that ran it.
package jobs

import (
	"crypto/rand"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"path/filepath"
	"sort"
	"sync"
	"time"

	"repro/internal/faultfs"
)

// State is a job lifecycle state.
type State string

const (
	Queued      State = "queued"
	Running     State = "running"
	Done        State = "done"
	Failed      State = "failed"
	Cancelled   State = "cancelled"
	Interrupted State = "interrupted"
)

// known reports whether s is one of the lifecycle states above.
func (s State) known() bool {
	switch s {
	case Queued, Running, Done, Failed, Cancelled, Interrupted:
		return true
	}
	return false
}

// legal enumerates the allowed transitions.
var legal = map[State][]State{
	Queued:      {Running, Cancelled},
	Running:     {Done, Failed, Cancelled, Interrupted},
	Interrupted: {Queued, Running, Cancelled},
}

func legalTransition(from, to State) bool {
	for _, s := range legal[from] {
		if s == to {
			return true
		}
	}
	return false
}

// Transition is one journaled lifecycle step.
type Transition struct {
	State State     `json:"state"`
	At    time.Time `json:"at"`
	Note  string    `json:"note,omitempty"`
}

// TileStatus is one work tile's completion record inside a manifest —
// the observable mirror of the pipeline's checkpoint records.
type TileStatus struct {
	Index    int    `json:"index"`
	State    string `json:"state"` // done | skipped | failed
	Attempts int    `json:"attempts,omitempty"`
	Error    string `json:"error,omitempty"`
}

// Manifest is a job's durable record. It is the unit of atomic
// persistence: every mutation rewrites the whole manifest through the
// temp+fsync+rename protocol, so a reader (or a recovering store)
// observes either the previous or the new manifest, never a torn one.
type Manifest struct {
	ID      string    `json:"id"`
	Kind    string    `json:"kind"`
	State   State     `json:"state"`
	Created time.Time `json:"created"`
	Started time.Time `json:"started,omitzero"`
	// Finished stamps entry into a terminal state.
	Finished time.Time `json:"finished,omitzero"`
	// Error carries the failure cause (failed jobs) or interruption
	// note.
	Error string `json:"error,omitempty"`
	// Request is the validated request body the job was created with,
	// replayed verbatim on resume.
	Request json.RawMessage `json:"request,omitempty"`
	// Tiles is the total work-tile count (0 until the pipeline
	// reports it); TileStatuses records the terminal tiles so far.
	Tiles        int          `json:"tiles,omitempty"`
	TileStatuses []TileStatus `json:"tile_statuses,omitempty"`
	History      []Transition `json:"history,omitempty"`
}

// TilesDone counts terminal tiles recorded so far.
func (m *Manifest) TilesDone() int { return len(m.TileStatuses) }

// Counts is a per-state census of the store, exposed via /healthz so
// load shedding and backlog are observable.
type Counts struct {
	Queued      int `json:"queued"`
	Running     int `json:"running"`
	Done        int `json:"done"`
	Failed      int `json:"failed"`
	Cancelled   int `json:"cancelled"`
	Interrupted int `json:"interrupted"`
}

// Store is a handle on one job directory tree. All methods are safe
// for concurrent use.
type Store struct {
	dir  string
	fsys faultfs.FS

	mu   sync.Mutex
	jobs map[string]*Job
}

// Job is a handle on one job. All methods are safe for concurrent
// use; mutations persist the manifest before returning.
type Job struct {
	store *Store
	dir   string

	mu sync.Mutex
	m  Manifest
}

// Open creates (if needed) a store directory and recovers every job
// in it: manifests are reloaded, and jobs found in the running state
// — orphans of a crashed or killed process — are marked interrupted
// so the caller can resume them. A job directory whose manifest is
// missing or corrupt (unparseable, filed under another id, or naming
// an unknown state) is surfaced as a failed job rather than silently
// dropped.
func Open(dir string) (*Store, error) {
	return OpenFS(dir, faultfs.OS())
}

// OpenFS opens a store over an explicit filesystem seam — the entry
// point the fault-injection tests use.
func OpenFS(dir string, fsys faultfs.FS) (*Store, error) {
	if dir == "" {
		return nil, fmt.Errorf("jobs: empty store directory")
	}
	if fsys == nil {
		fsys = faultfs.OS()
	}
	if err := fsys.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("jobs: creating %s: %w", dir, err)
	}
	s := &Store{dir: dir, fsys: fsys, jobs: map[string]*Job{}}
	ents, err := fsys.ReadDir(dir)
	if err != nil {
		return nil, fmt.Errorf("jobs: scanning %s: %w", dir, err)
	}
	for _, ent := range ents {
		if !ent.IsDir() {
			continue
		}
		id := ent.Name()
		j := &Job{store: s, dir: filepath.Join(dir, id)}
		raw, err := fsys.ReadFile(filepath.Join(j.dir, "manifest.json"))
		if err != nil || json.Unmarshal(raw, &j.m) != nil || j.m.ID != id || !j.m.State.known() {
			// The atomic manifest protocol makes this unreachable short
			// of external tampering or a missing file; keep the job
			// visible as failed instead of silently dropping the
			// directory or loading a state no transition leaves.
			j.m = Manifest{ID: id, State: Failed, Error: "unreadable manifest"}
			s.jobs[id] = j
			continue
		}
		if j.m.State == Running {
			j.m.State = Interrupted
			j.m.Error = "interrupted: process exited mid-run"
			j.m.History = append(j.m.History, Transition{State: Interrupted, At: time.Now().UTC(), Note: "recovered on store open"})
			if err := j.persistLocked(); err != nil {
				return nil, fmt.Errorf("jobs: recovering %s: %w", id, err)
			}
		}
		s.jobs[id] = j
	}
	return s, nil
}

// Dir returns the store root directory.
func (s *Store) Dir() string { return s.dir }

// Create registers a new queued job holding the validated request.
func (s *Store) Create(kind string, request json.RawMessage) (*Job, error) {
	now := time.Now().UTC()
	var suffix [4]byte
	if _, err := rand.Read(suffix[:]); err != nil {
		return nil, fmt.Errorf("jobs: id entropy: %w", err)
	}
	id := fmt.Sprintf("%s-%s", now.Format("20060102t150405"), hex.EncodeToString(suffix[:]))
	j := &Job{
		store: s,
		dir:   filepath.Join(s.dir, id),
		m: Manifest{
			ID: id, Kind: kind, State: Queued, Created: now,
			Request: request,
			History: []Transition{{State: Queued, At: now}},
		},
	}
	if err := s.fsys.MkdirAll(j.dir, 0o755); err != nil {
		return nil, fmt.Errorf("jobs: creating job dir: %w", err)
	}
	if err := j.persistLocked(); err != nil {
		return nil, err
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if _, dup := s.jobs[id]; dup {
		return nil, fmt.Errorf("jobs: id collision on %s", id)
	}
	s.jobs[id] = j
	return j, nil
}

// Get returns the job with the given id.
func (s *Store) Get(id string) (*Job, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	j, ok := s.jobs[id]
	return j, ok
}

// List returns every job's manifest, newest first (ties by ID so the
// order is total).
func (s *Store) List() []Manifest {
	s.mu.Lock()
	jobs := make([]*Job, 0, len(s.jobs))
	for _, j := range s.jobs {
		jobs = append(jobs, j)
	}
	s.mu.Unlock()
	out := make([]Manifest, 0, len(jobs))
	for _, j := range jobs {
		out = append(out, j.Manifest())
	}
	sort.Slice(out, func(a, b int) bool {
		if !out[a].Created.Equal(out[b].Created) {
			return out[a].Created.After(out[b].Created)
		}
		return out[a].ID > out[b].ID
	})
	return out
}

// Counts returns the per-state census.
func (s *Store) Counts() Counts {
	var c Counts
	for _, m := range s.List() {
		switch m.State {
		case Queued:
			c.Queued++
		case Running:
			c.Running++
		case Done:
			c.Done++
		case Failed:
			c.Failed++
		case Cancelled:
			c.Cancelled++
		case Interrupted:
			c.Interrupted++
		}
	}
	return c
}

// Resumable returns the jobs parked in queued or interrupted state,
// oldest first — the work a restarted server re-enqueues.
func (s *Store) Resumable() []*Job {
	s.mu.Lock()
	jobs := make([]*Job, 0, len(s.jobs))
	for _, j := range s.jobs {
		jobs = append(jobs, j)
	}
	s.mu.Unlock()
	var out []*Job
	for _, j := range jobs {
		if st := j.Manifest().State; st == Queued || st == Interrupted {
			out = append(out, j)
		}
	}
	sort.Slice(out, func(a, b int) bool {
		ma, mb := out[a].Manifest(), out[b].Manifest()
		if !ma.Created.Equal(mb.Created) {
			return ma.Created.Before(mb.Created)
		}
		return ma.ID < mb.ID
	})
	return out
}

// ID returns the job's identifier.
func (j *Job) ID() string { return j.m.ID }

// Dir returns the job's directory; callers keep per-job artifacts
// (e.g. the city tile checkpoint) under it.
func (j *Job) Dir() string { return j.dir }

// Manifest returns a snapshot copy of the job's manifest.
func (j *Job) Manifest() Manifest {
	j.mu.Lock()
	defer j.mu.Unlock()
	m := j.m
	m.TileStatuses = append([]TileStatus(nil), j.m.TileStatuses...)
	m.History = append([]Transition(nil), j.m.History...)
	return m
}

// Transition moves the job to state, journaling the step and
// persisting the manifest durably before returning. Illegal
// transitions (e.g. out of a terminal state) are rejected.
func (j *Job) Transition(state State, note string) error {
	j.mu.Lock()
	defer j.mu.Unlock()
	if !legalTransition(j.m.State, state) {
		return fmt.Errorf("jobs: illegal transition %s → %s for %s", j.m.State, state, j.m.ID)
	}
	prev := j.m
	now := time.Now().UTC()
	j.m.State = state
	switch state {
	case Running:
		if j.m.Started.IsZero() {
			j.m.Started = now
		}
		j.m.Error = ""
	case Queued:
		j.m.Error = ""
	case Failed, Interrupted:
		j.m.Error = note
		if state == Failed {
			j.m.Finished = now
		}
	case Done, Cancelled:
		j.m.Finished = now
	}
	j.m.History = append(j.m.History, Transition{State: state, At: now, Note: note})
	if err := j.persistLocked(); err != nil {
		// The durable manifest is the truth: a transition that could
		// not persist did not happen.
		j.m = prev
		return err
	}
	return nil
}

// SetTiles records the total work-tile count once known.
func (j *Job) SetTiles(n int) error {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.m.Tiles == n {
		return nil
	}
	prev := j.m.Tiles
	j.m.Tiles = n
	if err := j.persistLocked(); err != nil {
		j.m.Tiles = prev
		return err
	}
	return nil
}

// RecordTile upserts one tile's terminal record (keyed by index) and
// persists the manifest.
func (j *Job) RecordTile(ts TileStatus) error {
	j.mu.Lock()
	defer j.mu.Unlock()
	replaced := false
	for i := range j.m.TileStatuses {
		if j.m.TileStatuses[i].Index == ts.Index {
			j.m.TileStatuses[i] = ts
			replaced = true
			break
		}
	}
	if !replaced {
		j.m.TileStatuses = append(j.m.TileStatuses, ts)
		sort.Slice(j.m.TileStatuses, func(a, b int) bool {
			return j.m.TileStatuses[a].Index < j.m.TileStatuses[b].Index
		})
	}
	return j.persistLocked()
}

// WriteResult durably persists the job's final result document.
func (j *Job) WriteResult(v any) error {
	raw, err := json.Marshal(v)
	if err != nil {
		return fmt.Errorf("jobs: encoding result for %s: %w", j.m.ID, err)
	}
	return faultfs.WriteFileAtomic(j.store.fsys, filepath.Join(j.dir, "result.json"), raw, 0o644)
}

// ReadResult loads the job's result document into out. It fails for
// jobs that have not written one.
func (j *Job) ReadResult(out any) error {
	raw, err := j.store.fsys.ReadFile(filepath.Join(j.dir, "result.json"))
	if err != nil {
		return fmt.Errorf("jobs: result for %s: %w", j.m.ID, err)
	}
	return json.Unmarshal(raw, out)
}

// ResultBytes returns the raw result document.
func (j *Job) ResultBytes() ([]byte, error) {
	raw, err := j.store.fsys.ReadFile(filepath.Join(j.dir, "result.json"))
	if err != nil {
		return nil, fmt.Errorf("jobs: result for %s: %w", j.m.ID, err)
	}
	return raw, nil
}

// persistLocked writes the manifest atomically+durably. Callers hold
// j.mu.
func (j *Job) persistLocked() error {
	raw, err := json.Marshal(&j.m)
	if err != nil {
		return fmt.Errorf("jobs: encoding manifest for %s: %w", j.m.ID, err)
	}
	return faultfs.WriteFileAtomic(j.store.fsys, filepath.Join(j.dir, "manifest.json"), raw, 0o644)
}
