package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"reflect"

	pvfloor "repro"
	"repro/internal/blobstore"
	"repro/internal/dsm"
	"repro/internal/faultfs"
	"repro/internal/fieldcache"
)

// The three district workloads sweep the same seeded pool of tiles
// through pvfloor.RunDistrict and marshal the report; they differ only
// in what the artifact cache holds, so together they show one input set
// through the same layers three ways:
//
//   - cold: no cache. The tile-horizon march and the statistics pass
//     dominate; the cache and blob layers are idle.
//   - local: one warm local cache shared by every operation. The march
//     and the pass are replaced by restores, so extraction, placement,
//     evaluation and the restore itself dominate.
//   - remote: a fresh empty local directory per operation over a warm
//     peer served by blobstore.Handler on loopback, so every restore is
//     an HTTP read and every hit is promoted by a local write.
const (
	kindCold   = "cold"
	kindLocal  = "local"
	kindRemote = "remote"
)

type districtWL struct {
	e        *env
	kindName string
	tiles    []*dsm.Raster
	want     [][]byte // serial reference report per pool slot
	order    []int

	local  *fieldcache.Cache // kindLocal: shared warm handle
	peer   *httptest.Server  // kindRemote: warm blob peer
	remote blobstore.Backend
	opDir  string // kindRemote: the running operation's local tier
}

func setupDistrict(e *env, kind string) (workload, error) {
	w := &districtWL{e: e, kindName: kind}
	for _, spec := range districtPool(e.seed) {
		w.tiles = append(w.tiles, makeTile(e.blocks, spec))
	}
	// Serial reference: no worker pools, no cache.
	for i, tile := range w.tiles {
		res, err := pvfloor.RunDistrict(pvfloor.DistrictConfig{Tile: tile, Concurrency: 1, FieldWorkers: 1})
		if err != nil {
			return nil, fmt.Errorf("reference tile %d: %w", i, err)
		}
		if i == 0 {
			if err := checkGolden(e.root, res); err != nil {
				return nil, err
			}
		}
		report, err := json.Marshal(pvfloor.NewDistrictReport(res))
		if err != nil {
			return nil, err
		}
		w.want = append(w.want, report)
	}
	w.order = cycleOrder(rng(e.seed, streamOrder), len(w.tiles), 10000)

	var err error
	switch kind {
	case kindLocal:
		w.local, err = fieldcache.OpenTiered(fieldcache.Config{
			Dir: filepath.Join(e.work, "cache"), FS: timingFS{FS: faultfs.OS()},
		})
		if err == nil {
			err = w.warm(w.local)
		}
	case kindRemote:
		err = w.startPeer()
	}
	if err != nil {
		w.close()
		return nil, err
	}
	return w, nil
}

// warm sweeps every pool tile once through cache, checking the output.
func (w *districtWL) warm(cache *fieldcache.Cache) error {
	for i := range w.tiles {
		if err := w.sweep(i, nil, cache); err != nil {
			return fmt.Errorf("warming tile %d: %w", i, err)
		}
	}
	return nil
}

// startPeer warms a cache directory and serves it over loopback HTTP
// with at most nproc connections.
func (w *districtWL) startPeer() error {
	dir := filepath.Join(w.e.work, "peer")
	cache, err := fieldcache.Open(dir)
	if err != nil {
		return err
	}
	if err := w.warm(cache); err != nil {
		return err
	}
	peer, err := blobstore.OpenDir(dir, nil)
	if err != nil {
		return err
	}
	w.peer = httptest.NewServer(blobstore.Handler(peer))
	client := &http.Client{Transport: &http.Transport{MaxConnsPerHost: w.e.nproc, MaxIdleConnsPerHost: w.e.nproc}}
	w.remote, err = blobstore.OpenHTTP(w.peer.URL, blobstore.HTTPOptions{Client: client})
	return err
}

func (w *districtWL) kind(int) string { return w.kindName }

func (w *districtWL) op(i int, oc *opCtx) error {
	slot := w.order[i%len(w.order)]
	var cache *fieldcache.Cache
	switch w.kindName {
	case kindLocal:
		cache = w.local
	case kindRemote:
		dir, err := os.MkdirTemp(w.e.work, "op-*")
		if err != nil {
			return err
		}
		w.opDir = dir
		cache, err = fieldcache.OpenTiered(fieldcache.Config{
			Dir: dir, FS: timingFS{FS: faultfs.OS()},
			Remote: timingBackend{Backend: w.remote}, RemoteName: "remote",
		})
		if err != nil {
			return err
		}
	}
	return w.sweep(slot, oc, cache)
}

// after removes the remote operation's local tier, outside the timing.
func (w *districtWL) after() {
	if w.opDir != "" {
		os.RemoveAll(w.opDir)
		w.opDir = ""
	}
}

// sweep runs pool slot through the district pipeline (staged when oc
// traces) and checks the report against the reference.
func (w *districtWL) sweep(slot int, oc *opCtx, cache *fieldcache.Cache) error {
	var before fieldcache.Metrics
	if cache != nil {
		before = cache.Metrics()
	}
	var res *pvfloor.DistrictResult
	var st districtStats
	var err error
	if oc == nil || oc.tr == nil {
		res, err = pvfloor.RunDistrict(pvfloor.DistrictConfig{
			Tile: w.tiles[slot], Cache: cache, Concurrency: w.e.nproc, FieldWorkers: w.e.nproc,
		})
	} else {
		res, st, err = stagedDistrict(oc, w.tiles[slot], w.e.nproc, cache)
	}
	if err != nil {
		return err
	}
	got, err := encodeDistrict(oc, res)
	if err != nil {
		return err
	}
	if !bytes.Equal(got, w.want[slot]) {
		return fmt.Errorf("tile %d: report differs from the serial reference", slot)
	}
	if oc != nil && oc.tr != nil {
		statsHits := 0.0
		if !st.horizonHit {
			oc.count("horizon.marches", 1)
		}
		if cache != nil {
			statsHits = countCache(oc, before, cache.Metrics())
			if st.horizonHit {
				statsHits--
			}
		}
		oc.count("field.stats_passes", float64(st.roofs)-statsHits)
	}
	return nil
}

// countCache counts what the cache did between two readings of its
// metrics and returns the hits.
func countCache(oc *opCtx, before, after fieldcache.Metrics) float64 {
	hits := float64(after.Hits - before.Hits)
	oc.count("fieldcache.hits", hits)
	oc.count("fieldcache.lookups", hits+float64(after.Misses-before.Misses))
	oc.count("fieldcache.corrupt", float64(after.Corrupt-before.Corrupt))
	oc.count("fieldcache.errors", float64(tierErrors(after)-tierErrors(before)))
	return hits
}

func tierErrors(m fieldcache.Metrics) uint64 {
	var n uint64
	for _, t := range m.Tiers {
		n += t.Errors
	}
	return n
}

func (w *districtWL) layers(tr *tracer, ops int, m metricSet) {
	self := tr.selfTimes()
	for name, spanName := range map[string]string{
		"district.extract_ms":      "district.extract",
		"horizon.march_ms":         "horizon.march",
		"horizon.restore_ms":       "horizon.restore",
		"field.sky_ms":             "field.sky",
		"field.stats_ms":           "field.stats",
		"floorplan.suitability_ms": "floorplan.suitability",
		"floorplan.place_ms":       "floorplan.place",
		"floorplan.evaluate_ms":    "floorplan.evaluate",
		"pvfloor.encode_ms":        "pvfloor.encode",
		"blobstore.local.read_ms":  "blobstore.local.read",
		"blobstore.local.write_ms": "blobstore.local.write",
		"blobstore.remote.get_ms":  "blobstore.remote.get",
	} {
		perOp(m, self, ops, name, spanName)
	}
	cacheLayers(tr, ops, m)
}

// cacheLayers sets the counter-derived per-layer metrics every cached
// workload shares.
func cacheLayers(tr *tracer, ops int, m metricSet) {
	n := float64(ops)
	m.set("horizon.marches_per_op", tr.counter("horizon.marches")/n)
	m.set("field.stats_passes_per_op", tr.counter("field.stats_passes")/n)
	m.set("blobstore.remote.bytes_per_op", tr.counter("blobstore.remote.bytes")/n)
	if l := tr.counter("fieldcache.lookups"); l > 0 {
		m.set("fieldcache.hit_ratio", tr.counter("fieldcache.hits")/l)
	}
	m.set("fieldcache.corrupt", tr.counter("fieldcache.corrupt"))
	m.set("fieldcache.errors", tr.counter("fieldcache.errors"))
}

func (w *districtWL) close() {
	w.after()
	if w.peer != nil {
		w.peer.Close()
	}
}

// checkGolden compares the serial neighborhood run against the
// committed golden: per-roof anchors, statistics digest and net
// energies must match exactly.
func checkGolden(root string, res *pvfloor.DistrictResult) error {
	type eval struct {
		NetMWh float64 `json:"net_mwh"`
	}
	var golden struct {
		Roofs []struct {
			Golden struct {
				GPctDigest         string   `json:"gpct_digest"`
				ProposedAnchors    [][2]int `json:"proposed_anchors"`
				TraditionalAnchors [][2]int `json:"traditional_anchors"`
				Proposed           eval     `json:"proposed"`
				Traditional        eval     `json:"traditional"`
			}
		} `json:"roofs"`
	}
	data, err := os.ReadFile(filepath.Join(root, "testdata/golden/rundistrict_neighborhood.json"))
	if err != nil {
		return err
	}
	if err := json.Unmarshal(data, &golden); err != nil {
		return fmt.Errorf("golden: %w", err)
	}
	if len(golden.Roofs) != len(res.Plans) {
		return fmt.Errorf("golden: %d roofs, reference run has %d", len(golden.Roofs), len(res.Plans))
	}
	for i, g := range golden.Roofs {
		rp := &res.Plans[i]
		if !rp.Planned() {
			return fmt.Errorf("golden: roof %d not planned", i+1)
		}
		r := rp.Run.Result
		var prop, trad [][2]int
		for _, c := range r.Proposed.Anchors() {
			prop = append(prop, [2]int{c.X, c.Y})
		}
		for _, c := range r.Traditional.Anchors() {
			trad = append(trad, [2]int{c.X, c.Y})
		}
		if pvfloor.GPctDigest(r.Stats) != g.Golden.GPctDigest ||
			!reflect.DeepEqual(prop, g.Golden.ProposedAnchors) ||
			!reflect.DeepEqual(trad, g.Golden.TraditionalAnchors) ||
			r.ProposedEval.NetMWh() != g.Golden.Proposed.NetMWh ||
			r.TraditionalEval.NetMWh() != g.Golden.Traditional.NetMWh {
			return fmt.Errorf("golden: roof %d differs from testdata/golden/rundistrict_neighborhood.json", i+1)
		}
	}
	return nil
}
