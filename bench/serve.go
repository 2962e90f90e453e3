package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	pvfloor "repro"
	"repro/internal/blobstore"
	"repro/internal/dsm"
	"repro/internal/fieldcache"
	"repro/internal/scenario"
	"repro/internal/serve"
)

// serve drives the pvserve HTTP front-end (serve.New behind httptest on
// loopback) with a seeded request mix. Each round is an open-loop
// Poisson phase at serveRateRPS — independent users, timed from when
// each request was due — then a closed-loop phase of nproc clients for
// the last third of the round, whose throughput is the saturation
// rate. The mix puts request decoding, tile-store reads, the admission
// pool and NDJSON encoding on the path, with uploads and cold sweeps
// writing beside warm reads.
type serveWL struct {
	e      *env
	srv    *serve.Server
	hs     *httptest.Server
	client *http.Client
	// healthClient polls /healthz on a connection of its own, so traced
	// rounds do not take the request client's connections.
	healthClient *http.Client
	remote       *blobstore.Dir // the server's remote tier (in-process)

	reqs []serveReq
	next atomic.Int64

	runWant    map[string][]byte // run request body → expected response (elapsed removed)
	poolWant   map[string][]byte // tile ref → district report
	poolRefs   map[string]bool
	cityWant   []byte
	coldSpecs  map[string]tileSpec // cold tile ref → its spec (checked after measuring)
	mu         sync.Mutex
	coldGot    map[string][]byte // cold tile ref → report received
	districtFE []float64         // first-event ms of warm district requests (traced rounds)

	// Filled by measure for layers.
	open, openTraced []outcome
	health           healthStats
	cacheDelta       cacheCounts
}

// serveRateRPS is the open-loop arrival rate, about a third of the
// saturation rate measured on the reference host (REFERENCE.json), so
// the open-loop percentiles sit below the knee of the latency curve.
// With a busy loop holding one of the reference host's two cores, the
// roof-class median rose 1.8–1.9× at 16 rps and 1.3–1.5× at 12 rps:
// the lower rate keeps the queue short, so a slower host shows less
// amplified in the latency.
const serveRateRPS = 12.0

// serveTimedClass is the request class whose open-loop latencies make
// the serve p50_ms: /v1/run on Roof 1–3, the largest class of the mix.
// A median pooled over every class falls where this class meets the
// faster district requests, and jumps between the two as load and
// host speed shift; one class's median stays inside its own mode. The
// other classes are the traffic it shares the server with, and their
// medians are per-layer metrics.
const serveTimedClass = "run_roof"

// serveWarmCombos are the (block*4 + flip) pairs of the warm district
// tiles: both blocks, as is and mirrored both ways. They are the same
// for every seed, so the warm district work does not vary with it.
var serveWarmCombos = map[int]bool{0: true, 3: true, 4: true, 7: true}

// serveWarmPool returns the warm district tiles: the pool slots holding
// serveWarmCombos, slot 0 (the unmodified fixture) first.
func serveWarmPool(seed int64) []tileSpec {
	var out []tileSpec
	for _, spec := range districtPool(seed) {
		if serveWarmCombos[spec.Block*4+spec.Flip] {
			out = append(out, spec)
		}
	}
	return out
}

// serveDeck is one seeded deck of 20 requests: the class mix.
var serveDeck = []string{
	"run_res", "run_res",
	"run_roof", "run_roof", "run_roof", "run_roof", "run_roof", "run_roof", "run_roof", "run_roof", "run_roof",
	"district", "district", "district", "district", "district",
	"city", "city",
	"tiles",
	"cold",
}

type serveReq struct {
	class string
	path  string
	body  []byte
	gzip  bool   // body is a gzip tile upload
	ref   string // district/cold: tile ref; tiles: expected ref ("" = new)
}

const (
	serveFresh  = 16 // cold tiles and new uploads provisioned
	serveCycles = 32 // request decks generated
)

func setupServe(e *env) (workload, error) {
	w := &serveWL{e: e, runWant: map[string][]byte{}, poolWant: map[string][]byte{},
		poolRefs: map[string]bool{}, coldSpecs: map[string]tileSpec{}, coldGot: map[string][]byte{}}
	var err error
	if w.remote, err = blobstore.OpenDir(filepath.Join(e.work, "remote"), nil); err != nil {
		return nil, err
	}
	w.srv, err = serve.New(serve.Options{
		MaxConcurrentRuns: e.nproc, Concurrency: e.nproc, FieldWorkers: e.nproc,
		CacheDir:    filepath.Join(e.work, "cache"),
		RemoteCache: timingBackend{Backend: w.remote, countStores: true},
		TilesDir:    filepath.Join(e.work, "tiles"),
	})
	if err != nil {
		return nil, err
	}
	w.hs = httptest.NewServer(w.srv)
	w.client = &http.Client{Transport: &http.Transport{
		MaxConnsPerHost: e.nproc, MaxIdleConnsPerHost: e.nproc, DisableCompression: true,
	}}
	w.healthClient = &http.Client{Transport: &http.Transport{MaxConnsPerHost: 1}}
	if err := w.prepare(); err != nil {
		w.close()
		return nil, err
	}
	return w, nil
}

// prepare uploads every tile, computes the references, warms the
// server with one request per warm input and builds the request list.
func (w *serveWL) prepare() error {
	e := w.e
	var poolRefs []string
	for _, spec := range serveWarmPool(e.seed) {
		tile := makeTile(e.blocks, spec)
		ref, err := w.upload(tile)
		if err != nil {
			return err
		}
		res, err := pvfloor.RunDistrict(pvfloor.DistrictConfig{Tile: tile, Concurrency: 1, FieldWorkers: 1})
		if err != nil {
			return err
		}
		if w.poolWant[ref], err = json.Marshal(pvfloor.NewDistrictReport(res)); err != nil {
			return err
		}
		poolRefs = append(poolRefs, ref)
		w.poolRefs[ref] = true
	}
	// The city raster, shared with the city workload's generator.
	path, raster, err := writeCity(e, e.work)
	if err != nil {
		return err
	}
	if w.cityWant, err = cityReference(path); err != nil {
		return err
	}
	cityRef, err := w.upload(raster)
	if err != nil {
		return err
	}
	// Cold tiles are uploaded now and swept only when measured; their
	// references are computed after measuring, for the ones used.
	nFresh := serveFresh
	if e.short {
		nFresh = 4
	}
	ur := rng(e.seed, streamUpload)
	var coldRefs []string
	for _, spec := range freshTiles(ur, nFresh, 5) {
		ref, err := w.upload(makeTile(e.blocks, spec))
		if err != nil {
			return err
		}
		w.coldSpecs[ref] = spec
		coldRefs = append(coldRefs, ref)
	}
	var newUploads [][]byte
	for _, spec := range freshTiles(ur, nFresh, 10) {
		body, err := ascBytes(makeTile(e.blocks, spec), true)
		if err != nil {
			return err
		}
		newUploads = append(newUploads, body)
	}
	var reupload [][]byte
	for _, spec := range serveWarmPool(e.seed) {
		body, err := ascBytes(makeTile(e.blocks, spec), true)
		if err != nil {
			return err
		}
		reupload = append(reupload, body)
	}

	// Run references: serial, one field per roof.
	type runCase struct {
		scenario string
		modules  int
	}
	cases := []runCase{{"residential", 8}}
	for _, r := range []string{"roof1", "roof2", "roof3"} {
		cases = append(cases, runCase{r, 16}, runCase{r, 32})
	}
	ctors := map[string]func() (*scenario.Scenario, error){
		"residential": pvfloor.Residential, "roof1": pvfloor.Roof1, "roof2": pvfloor.Roof2, "roof3": pvfloor.Roof3,
	}
	scs := map[string]*scenario.Scenario{}
	var cfgs []pvfloor.Config
	for _, c := range cases {
		if scs[c.scenario] == nil {
			if scs[c.scenario], err = ctors[c.scenario](); err != nil {
				return err
			}
		}
		cfgs = append(cfgs, pvfloor.Config{Scenario: scs[c.scenario], Modules: c.modules})
	}
	runs, err := pvfloor.RunBatch(cfgs, pvfloor.BatchOptions{Concurrency: 1, FieldWorkers: 1})
	if err != nil {
		return err
	}
	var runBodies [][]byte
	for i, c := range cases {
		if runs[i].Err != nil {
			return runs[i].Err
		}
		body, _ := json.Marshal(serve.RunRequest{Scenario: c.scenario, Modules: c.modules})
		runBodies = append(runBodies, body)
		// Warm the server and keep its answer, checked against the
		// serial run, as the expected response.
		got, err := w.post("/v1/run", body)
		if err != nil {
			return err
		}
		var rep serve.RunReport
		if err := json.Unmarshal(got, &rep); err != nil {
			return err
		}
		r := runs[i].Result
		if rep.GPctDigest != pvfloor.GPctDigest(r.Stats) || rep.ProposedMWh != r.ProposedEval.NetMWh() ||
			rep.TraditionalMWh != r.TraditionalEval.NetMWh() {
			return fmt.Errorf("/v1/run %s: response differs from the serial run", body)
		}
		w.runWant[string(body)] = stripElapsed(got)
	}

	// Warm district and city requests.
	var districtBodies [][]byte
	for _, ref := range poolRefs {
		body, _ := json.Marshal(serve.DistrictRequest{TileRef: ref})
		districtBodies = append(districtBodies, body)
		if _, err := w.stream(serveReq{class: "district", path: "/v1/district", body: body, ref: ref}); err != nil {
			return fmt.Errorf("warming %s: %w", ref, err)
		}
	}
	cityBody, _ := json.Marshal(cityRequest(cityRef))
	if _, err := w.stream(serveReq{class: "city", path: "/v1/city", body: cityBody}); err != nil {
		return fmt.Errorf("warming the city: %w", err)
	}

	// The request list: seeded decks, each class cycling its inputs.
	sr := rng(e.seed, streamServe)
	var nRes, nRoof, nDistrict, nTiles, nCold int
	for c := 0; c < serveCycles; c++ {
		for _, k := range sr.Perm(len(serveDeck)) {
			q := serveReq{class: serveDeck[k]}
			switch q.class {
			case "run_res":
				q.path, q.body = "/v1/run", runBodies[0]
				nRes++
			case "run_roof":
				q.path, q.body = "/v1/run", runBodies[1+nRoof%(len(runBodies)-1)]
				nRoof++
			case "district":
				i := nDistrict % len(districtBodies)
				q.path, q.body, q.ref = "/v1/district", districtBodies[i], poolRefs[i]
				nDistrict++
			case "city":
				q.path, q.body = "/v1/city", cityBody
			case "tiles":
				// Half re-upload a stored tile, half upload a new one.
				q.path, q.gzip = "/v1/tiles", true
				if nTiles%2 == 0 {
					i := nTiles / 2 % len(reupload)
					q.body, q.ref = reupload[i], poolRefs[i]
				} else {
					q.body = newUploads[nTiles/2%len(newUploads)]
				}
				nTiles++
			case "cold":
				q.ref = coldRefs[nCold%len(coldRefs)]
				q.path = "/v1/district"
				q.body, _ = json.Marshal(serve.DistrictRequest{TileRef: q.ref})
				nCold++
			}
			w.reqs = append(w.reqs, q)
		}
	}
	return nil
}

func cityRequest(ref string) serve.CityRequest {
	return serve.CityRequest{
		DistrictRequest: serve.DistrictRequest{TileRef: ref,
			Econ: &serve.EconRequest{RankBy: string(pvfloor.RankByNPV), BudgetUSD: cityBudgetUSD}},
		TileCells: cityTileCells, HaloCells: cityHaloCells,
	}
}

// upload stores tile through POST /v1/tiles and returns its ref.
func (w *serveWL) upload(tile *dsm.Raster) (string, error) {
	body, err := ascBytes(tile, true)
	if err != nil {
		return "", err
	}
	resp, err := w.client.Post(w.hs.URL+"/v1/tiles", "application/gzip", bytes.NewReader(body))
	if err != nil {
		return "", err
	}
	defer resp.Body.Close()
	var info struct {
		Ref string `json:"tile_ref"`
	}
	if resp.StatusCode != http.StatusCreated {
		return "", fmt.Errorf("tile upload: status %d", resp.StatusCode)
	}
	if err := json.NewDecoder(resp.Body).Decode(&info); err != nil {
		return "", err
	}
	return info.Ref, nil
}

// post sends a JSON body and returns the 200 response body.
func (w *serveWL) post(path string, body []byte) ([]byte, error) {
	resp, err := w.client.Post(w.hs.URL+path, "application/json", bytes.NewReader(body))
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, err
	}
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("%s: status %d: %s", path, resp.StatusCode, bytes.TrimSpace(data))
	}
	return data, nil
}

// stripElapsed removes the wall-time field from a run response, the
// only part that differs between identical requests.
func stripElapsed(body []byte) []byte {
	var m map[string]any
	if json.Unmarshal(body, &m) != nil {
		return body
	}
	delete(m, "elapsed_ms")
	out, _ := json.Marshal(m)
	return out
}

// send issues request k and checks its response.
func (w *serveWL) send(k int) (time.Time, error) {
	q := w.reqs[k%len(w.reqs)]
	switch q.class {
	case "run_res", "run_roof":
		got, err := w.post(q.path, q.body)
		first := time.Now()
		if err != nil {
			return first, err
		}
		if !bytes.Equal(stripElapsed(got), w.runWant[string(q.body)]) {
			return first, fmt.Errorf("%s: response differs from the reference", q.body)
		}
		return first, nil
	case "tiles":
		resp, err := w.client.Post(w.hs.URL+q.path, "application/gzip", bytes.NewReader(q.body))
		if err != nil {
			return time.Now(), err
		}
		defer resp.Body.Close()
		first := time.Now()
		var info struct {
			Ref string `json:"tile_ref"`
		}
		if resp.StatusCode != http.StatusCreated {
			return first, fmt.Errorf("tile upload: status %d", resp.StatusCode)
		}
		if err := json.NewDecoder(resp.Body).Decode(&info); err != nil {
			return first, err
		}
		if q.ref != "" && info.Ref != q.ref || q.ref == "" && (!strings.HasPrefix(info.Ref, "asc-") || w.poolRefs[info.Ref]) {
			return first, fmt.Errorf("tile upload answered ref %q", info.Ref)
		}
		return first, nil
	default:
		return w.stream(q)
	}
}

// stream sends a district or city request and checks its NDJSON
// stream: it must end in a result line whose report matches the
// reference (cold reports are kept and checked after measuring).
func (w *serveWL) stream(q serveReq) (time.Time, error) {
	var first time.Time
	resp, err := w.client.Post(w.hs.URL+q.path, "application/json", bytes.NewReader(q.body))
	if err != nil {
		return first, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return time.Now(), fmt.Errorf("%s: status %d", q.path, resp.StatusCode)
	}
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 0, 1<<20), 64<<20)
	var result []byte
	for sc.Scan() {
		if first.IsZero() {
			first = time.Now()
		}
		var ev struct {
			Event    string          `json:"event"`
			Error    string          `json:"error"`
			District json.RawMessage `json:"district"`
			City     json.RawMessage `json:"city"`
		}
		if err := json.Unmarshal(sc.Bytes(), &ev); err != nil {
			return first, err
		}
		switch ev.Event {
		case "error":
			return first, errors.New(ev.Error)
		case "result":
			result = ev.District
			if q.class == "city" {
				result = ev.City
			}
		}
	}
	if err := sc.Err(); err != nil {
		return first, err
	}
	if result == nil {
		return first, fmt.Errorf("%s: stream ended without a result line", q.path)
	}
	var compact bytes.Buffer
	if err := json.Compact(&compact, result); err != nil {
		return first, err
	}
	var want []byte
	switch q.class {
	case "city":
		want = w.cityWant
	case "district":
		want = w.poolWant[q.ref]
	case "cold":
		w.mu.Lock()
		w.coldGot[q.ref] = compact.Bytes()
		w.mu.Unlock()
		return first, nil
	}
	if !bytes.Equal(compact.Bytes(), want) {
		return first, fmt.Errorf("%s %s: report differs from the serial reference", q.path, q.ref)
	}
	return first, nil
}

// check computes the serial reference of every cold tile that was swept
// and compares the reports received.
func (w *serveWL) check() (int, error) {
	failed := 0
	for ref, got := range w.coldGot {
		res, err := pvfloor.RunDistrict(pvfloor.DistrictConfig{
			Tile: makeTile(w.e.blocks, w.coldSpecs[ref]), Concurrency: 1, FieldWorkers: 1,
		})
		if err != nil {
			return 0, err
		}
		want, err := json.Marshal(pvfloor.NewDistrictReport(res))
		if err != nil {
			return 0, err
		}
		if !bytes.Equal(got, want) {
			failed++
		}
	}
	return failed, nil
}

func (w *serveWL) kind(k int) string { return w.reqs[k%len(w.reqs)].class }

// measure runs the rounds: calibration, the open-loop phase for two
// thirds of the round, then nproc closed-loop clients for the rest.
func (w *serveWL) measure(seconds float64, trace bool, tr *tracer, hw *heapWatch) measured {
	var m measured
	roundDur := time.Duration(seconds / rounds * float64(time.Second))
	openDur := roundDur * 2 / 3
	arrivals := rng(w.e.seed, streamArrivals)
	next := func() int { return int(w.next.Add(1) - 1) }
	var open, openTraced []outcome
	var health healthStats
	var beforeCache, afterCache cacheCounts
	for r := 0; r < rounds; r++ {
		m.refs = append(m.refs, calibrate())
		traced := trace && r%2 == 1
		hw.enable(!traced)
		var stopHealth func()
		if traced {
			active.Store(tr.begin(-1, "serve"))
			c, _ := w.cacheCounts()
			beforeCache = beforeCache.add(c)
			stopHealth = w.pollHealth(&health)
		}
		snap := snapRuntime()
		var dues []time.Duration
		for _, d := range poisson(arrivals, serveRateRPS, int(serveRateRPS*openDur.Seconds()*3)+8) {
			if d >= openDur {
				break
			}
			dues = append(dues, d)
		}
		start := time.Now()
		got := openLoop(start, dues, w.e.nproc, next, w.send)
		closedStart := time.Now()
		deadline := closedStart.Add(roundDur - openDur)
		closed := closedLoop(deadline, w.e.nproc, next, w.send)
		if traced {
			stopHealth()
			c, _ := w.cacheCounts()
			afterCache = afterCache.add(c)
			active.Store(nil)
		}
		var roundLat []float64
		for _, o := range append(got, closed...) {
			m.attempted++
			if o.err != nil {
				m.fail(fmt.Errorf("request %d (%s): %w", o.k, w.kind(o.k), o.err))
			}
		}
		// The rate is the requests completed inside the closed-loop
		// window over the time to the last of them. Counting the ones
		// that drain after the deadline too, over the time they take,
		// would let one slow request in flight at the deadline stretch
		// a short window by a large share.
		ok, last := 0, closedStart
		for _, o := range closed {
			if o.err == nil && !o.done.After(deadline) {
				ok++
				if o.done.After(last) {
					last = o.done
				}
			}
		}
		closedSecs := last.Sub(closedStart).Seconds()
		if ok == 0 {
			closedSecs = (roundDur - openDur).Seconds()
		}
		for _, o := range got {
			if o.err == nil && w.kind(o.k) == serveTimedClass {
				roundLat = append(roundLat, o.latencyMS())
			}
		}
		if traced {
			openTraced = append(openTraced, got...)
			m.tracedLat = append(m.tracedLat, roundLat...)
			m.tracedOps += len(got) + len(closed)
			for _, o := range append(got, closed...) {
				if w.kind(o.k) == "district" && o.err == nil && !o.first.IsZero() {
					w.districtFE = append(w.districtFE, ms(o.first.Sub(o.sent)))
				}
			}
			continue
		}
		open = append(open, got...)
		m.cost = m.cost.add(snapRuntime().sub(snap))
		m.costOps += len(got) + len(closed)
		m.lat = append(m.lat, roundLat...)
		m.roundP50 = append(m.roundP50, median(roundLat))
		m.roundRate = append(m.roundRate, float64(ok)/closedSecs)
		m.rateOps += ok
		m.rateSecs += closedSecs
	}
	hw.enable(false)
	w.open, w.openTraced, w.health = open, openTraced, health
	w.cacheDelta = afterCache.sub(beforeCache)
	return m
}

// healthStats accumulates /healthz pool gauges.
type healthStats struct {
	samples, running, queued float64
}

// pollHealth samples /healthz at 4 Hz until the returned stop is
// called; stop waits for the poller to exit.
func (w *serveWL) pollHealth(h *healthStats) (stop func()) {
	done := make(chan struct{})
	exited := make(chan struct{})
	go func() {
		defer close(exited)
		t := time.NewTicker(250 * time.Millisecond)
		defer t.Stop()
		for {
			select {
			case <-done:
				return
			case <-t.C:
				if hz, err := w.healthz(); err == nil {
					h.samples++
					h.running += float64(hz.Running)
					h.queued += float64(hz.Queued)
				}
			}
		}
	}()
	return func() {
		close(done)
		<-exited
	}
}

func (w *serveWL) healthz() (serve.Health, error) {
	var hz serve.Health
	resp, err := w.healthClient.Get(w.hs.URL + "/healthz")
	if err != nil {
		return hz, err
	}
	defer resp.Body.Close()
	err = json.NewDecoder(resp.Body).Decode(&hz)
	return hz, err
}

// cacheCounts is the server's artifact-cache traffic from /healthz.
type cacheCounts struct {
	hits, misses, corrupt, errors float64
}

func (w *serveWL) cacheCounts() (cacheCounts, error) {
	hz, err := w.healthz()
	if err != nil || hz.Cache == nil {
		return cacheCounts{}, err
	}
	return countsOf(*hz.Cache), nil
}

func countsOf(m fieldcache.Metrics) cacheCounts {
	return cacheCounts{hits: float64(m.Hits), misses: float64(m.Misses),
		corrupt: float64(m.Corrupt), errors: float64(tierErrors(m))}
}

func (a cacheCounts) add(b cacheCounts) cacheCounts {
	return cacheCounts{a.hits + b.hits, a.misses + b.misses, a.corrupt + b.corrupt, a.errors + b.errors}
}

func (a cacheCounts) sub(b cacheCounts) cacheCounts {
	return cacheCounts{a.hits - b.hits, a.misses - b.misses, a.corrupt - b.corrupt, a.errors - b.errors}
}

func (w *serveWL) layers(tr *tracer, ops int, m metricSet) {
	byClass := map[string][]float64{}
	var late []float64
	for _, o := range w.open {
		if o.err == nil {
			byClass[w.kind(o.k)] = append(byClass[w.kind(o.k)], o.latencyMS())
		}
		late = append(late, o.lateMS())
	}
	for _, c := range []string{"run_res", "run_roof", "district", "city", "tiles", "cold"} {
		m.set("serve."+c+".p50_ms", median(byClass[c]))
	}
	m.set("serve.district.first_event_ms", median(w.districtFE))
	m.set("serve.gen_late_p90_ms", percentile(late, 90))
	rejected := 0
	for _, o := range append(append([]outcome(nil), w.open...), w.openTraced...) {
		if o.err != nil && strings.Contains(o.err.Error(), "status 503") {
			rejected++
		}
	}
	m.set("serve.rejected", float64(rejected))
	if w.health.samples > 0 {
		m.set("serve.running_avg", w.health.running/w.health.samples)
		m.set("serve.queued_avg", w.health.queued/w.health.samples)
	}
	d := w.cacheDelta
	if d.hits+d.misses > 0 {
		m.set("fieldcache.hit_ratio", d.hits/(d.hits+d.misses))
	}
	m.set("fieldcache.corrupt", d.corrupt)
	m.set("fieldcache.errors", d.errors)
	self := tr.selfTimes()
	perOp(m, self, ops, "blobstore.remote.get_ms", "blobstore.remote.get")
	n := float64(ops)
	m.set("horizon.marches_per_op", tr.counter("horizon.marches")/n)
	m.set("field.stats_passes_per_op", tr.counter("field.stats_passes")/n)
	m.set("blobstore.remote.bytes_per_op", tr.counter("blobstore.remote.bytes")/n)
}

func (w *serveWL) close() {
	if w.hs != nil {
		w.hs.Close()
	}
	if w.client != nil {
		w.client.CloseIdleConnections()
		w.healthClient.CloseIdleConnections()
	}
}
