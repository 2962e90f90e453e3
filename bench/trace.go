package main

import (
	"encoding/json"
	"os"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/blobstore"
	"repro/internal/faultfs"
)

// Spans are recorded only by benchmark code, around its calls into the
// program's layers and inside the seams the program offers (a CitySource,
// the cache's filesystem, a remote blob backend, progress hooks). They
// are kept in memory and written when the run ends.

// span is one timed call. Parent is 0 for an operation's root span.
// Seam spans (blob IO, window decodes) hang off the operation span and
// are not subtracted from the stage spans they overlap: a stage's self
// time includes the IO it triggers.
type span struct {
	ID       int64  `json:"id"`
	Parent   int64  `json:"parent"`
	Op       int    `json:"op"`
	Workload string `json:"workload"`
	Kind     string `json:"kind"`
	Name     string `json:"name"`
	StartNS  int64  `json:"start_ns"`
	EndNS    int64  `json:"end_ns"`
	seam     bool
}

// tracer collects spans and counters for one traced run. A nil
// *tracer records nothing, so untraced operations run the same code.
type tracer struct {
	workload string
	t0       time.Time
	next     atomic.Int64

	mu     sync.Mutex
	spans  []span
	counts map[string]float64
}

func newTracer(workload string) *tracer {
	return &tracer{workload: workload, t0: time.Now(), counts: map[string]float64{}}
}

// opCtx is the operation in flight: its index, kind and root span.
// Seams find it through active.
type opCtx struct {
	tr   *tracer
	op   int
	kind string
	id   int64
}

// active is the operation the seams attribute their spans to (nil =
// nothing traced). Closed-loop workloads run one operation at a time;
// the serve workload sets one shared context for a whole traced round.
var active atomic.Pointer[opCtx]

// begin starts an operation's root span.
func (t *tracer) begin(op int, kind string) *opCtx {
	oc := &opCtx{tr: t, op: op, kind: kind}
	if t != nil {
		oc.id = t.next.Add(1)
	}
	return oc
}

// timed runs fn as a span named name under parent (the operation's root
// when parent is 0), passing fn its own span ID for children.
func (oc *opCtx) timed(name string, parent int64, fn func(id int64) error) error {
	if oc == nil || oc.tr == nil {
		return fn(0)
	}
	if parent == 0 {
		parent = oc.id
	}
	id := oc.tr.next.Add(1)
	start := time.Now()
	err := fn(id)
	oc.record(span{ID: id, Parent: parent, Name: name}, start, time.Now())
	return err
}

// record stores a completed span of the operation.
func (oc *opCtx) record(s span, start, end time.Time) {
	if oc == nil || oc.tr == nil {
		return
	}
	t := oc.tr
	if s.ID == 0 {
		s.ID = t.next.Add(1)
	}
	s.Op, s.Workload, s.Kind = oc.op, t.workload, oc.kind
	s.StartNS, s.EndNS = start.Sub(t.t0).Nanoseconds(), end.Sub(t.t0).Nanoseconds()
	t.mu.Lock()
	t.spans = append(t.spans, s)
	t.mu.Unlock()
}

// end closes the operation's root span.
func (oc *opCtx) end(start time.Time) {
	oc.record(span{ID: oc.id, Name: "op"}, start, time.Now())
}

// count adds delta to a named counter.
func (oc *opCtx) count(name string, delta float64) {
	if oc == nil || oc.tr == nil {
		return
	}
	oc.tr.mu.Lock()
	oc.tr.counts[name] += delta
	oc.tr.mu.Unlock()
}

// seam records a seam span under the active operation.
func seam(name string, start time.Time) {
	oc := active.Load()
	if oc == nil || oc.tr == nil {
		return
	}
	oc.record(span{Parent: oc.id, Name: name, seam: true}, start, time.Now())
}

// seamCount adds to a counter of the active operation.
func seamCount(name string, delta float64) {
	active.Load().count(name, delta)
}

// selfTimes sums each span name's self time in milliseconds: its
// duration minus the union of its non-seam children's intervals.
func (t *tracer) selfTimes() map[string]float64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	children := map[int64][]span{}
	for _, s := range t.spans {
		if s.Parent != 0 && !s.seam {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	out := map[string]float64{}
	for _, s := range t.spans {
		self := float64(s.EndNS-s.StartNS) - float64(covered(s, children[s.ID]))
		out[s.Name] += self / 1e6
	}
	return out
}

// covered returns the nanoseconds of s covered by the union of kids.
func covered(s span, kids []span) int64 {
	if len(kids) == 0 {
		return 0
	}
	iv := make([][2]int64, 0, len(kids))
	for _, k := range kids {
		lo, hi := max(k.StartNS, s.StartNS), min(k.EndNS, s.EndNS)
		if hi > lo {
			iv = append(iv, [2]int64{lo, hi})
		}
	}
	sort.Slice(iv, func(a, b int) bool { return iv[a][0] < iv[b][0] })
	var total, curLo, curHi int64
	for i, v := range iv {
		if i == 0 || v[0] > curHi {
			total += curHi - curLo
			curLo, curHi = v[0], v[1]
			continue
		}
		curHi = max(curHi, v[1])
	}
	return total + curHi - curLo
}

// counter returns a counter's value.
func (t *tracer) counter(name string) float64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.counts[name]
}

// writeSpans writes every span as a JSON array.
func (t *tracer) writeSpans(path string) error {
	t.mu.Lock()
	defer t.mu.Unlock()
	data, err := json.Marshal(t.spans)
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}

// ---- seams ----

// timingFS times the local cache tier's filesystem calls: reads as
// blobstore.local.read, every step of an atomic write as
// blobstore.local.write. With countStores, publishing a horizon or
// statistics artifact counts as a horizon march or a statistics pass:
// without a slower tier nothing is promoted, so the cache stores
// exactly what was computed cold.
type timingFS struct {
	faultfs.FS
	countStores bool
}

func (f timingFS) ReadFile(name string) ([]byte, error) {
	start := time.Now()
	data, err := f.FS.ReadFile(name)
	seam("blobstore.local.read", start)
	return data, err
}

func (f timingFS) CreateTemp(dir, pattern string) (faultfs.File, error) {
	start := time.Now()
	file, err := f.FS.CreateTemp(dir, pattern)
	seam("blobstore.local.write", start)
	if err != nil {
		return nil, err
	}
	return timingFile{file}, nil
}

func (f timingFS) Rename(oldpath, newpath string) error {
	start := time.Now()
	err := f.FS.Rename(oldpath, newpath)
	seam("blobstore.local.write", start)
	if err == nil && f.countStores {
		countStore(newpath[strings.LastIndexByte(newpath, '/')+1:])
	}
	return err
}

func (f timingFS) SyncDir(dir string) error {
	start := time.Now()
	err := f.FS.SyncDir(dir)
	seam("blobstore.local.write", start)
	return err
}

type timingFile struct{ faultfs.File }

func (f timingFile) Write(p []byte) (int, error) {
	start := time.Now()
	n, err := f.File.Write(p)
	seam("blobstore.local.write", start)
	return n, err
}

func (f timingFile) Sync() error {
	start := time.Now()
	err := f.File.Sync()
	seam("blobstore.local.write", start)
	return err
}

func (f timingFile) Close() error {
	start := time.Now()
	err := f.File.Close()
	seam("blobstore.local.write", start)
	return err
}

// countStore classifies a published artifact key by its kind prefix.
func countStore(key string) {
	switch {
	case strings.HasPrefix(key, "horizon-"), strings.HasPrefix(key, "tilehorizon-"):
		seamCount("horizon.marches", 1)
	case strings.HasPrefix(key, "stats-"):
		seamCount("field.stats_passes", 1)
	}
}

// timingBackend times a remote blob tier. With countStores its puts
// classify like timingFS's: a remote tier receives explicit stores
// only, never promotions.
type timingBackend struct {
	blobstore.Backend
	countStores bool
}

func (b timingBackend) Get(key string) ([]byte, error) {
	start := time.Now()
	data, err := b.Backend.Get(key)
	seam("blobstore.remote.get", start)
	seamCount("blobstore.remote.bytes", float64(len(data)))
	return data, err
}

func (b timingBackend) Put(key string, data []byte) error {
	start := time.Now()
	err := b.Backend.Put(key, data)
	seam("blobstore.remote.put", start)
	if err == nil && b.countStores {
		countStore(key)
	}
	return err
}
