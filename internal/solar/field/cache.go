package field

import (
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"math"

	"repro/internal/dsm"
	"repro/internal/fieldcache"
	"repro/internal/geom"
	"repro/internal/solar/horizon"
)

// Artifact kinds in the persistent cache.
const (
	kindHorizon     = "horizon"
	kindStats       = "stats"
	kindTileHorizon = "tilehorizon"
)

// statsVersion is baked into every statistics fingerprint; bump it
// whenever the kernel's output semantics change (e.g. the documented
// GMean summation order) so stale artifacts from older binaries are
// never served.
const statsVersion = "stats-v2-sector"

// horizonMap returns the evaluator's horizon map: sliced out of
// Config.SharedHorizon when the shared map covers the roof and was
// built with the same resolved options, else from the artifact cache
// when Config.Cache is set and holds a verified entry, otherwise
// ray-marched over the Config.Suitable cells on the Config.Workers
// pool (and stored for the next process). A marched map holds +0 on
// the unsuitable cells, which nothing reads.
// The fingerprint covers the DSM raster content, the roof region, the
// suitable mask and the horizon options, so any surface, mask or
// parameter change recomputes.
// The fingerprint is computed whenever a cache is configured — also on
// the shared path — so the statistics cache key is identical whether
// the horizon came from a slice, the cache, or a cold build.
func horizonMap(cfg Config, roof geom.Rect) (m *horizon.Map, fp string, fromCache bool, err error) {
	if cfg.Cache != nil {
		o := cfg.Horizon
		fp = fmt.Sprintf("horizon-v2|%s|%v|%s|%d|%x|%x|%x|%x|%x",
			cfg.Scene.Raster.ContentHash(), roof, maskDigest(cfg.Suitable),
			o.Sectors, o.MaxDistanceM, o.NearStepM, o.NearFieldM, o.FarStepM, o.EyeHeightM)
	}
	if sh := cfg.SharedHorizon; sh != nil && sh.Covers(roof) &&
		sh.BuildOptions() == cfg.Horizon.Resolved(cfg.Scene.Raster.CellSize()) {
		if m, err := sh.Slice(roof); err == nil {
			return m, fp, true, nil
		}
	}
	if cfg.Cache == nil {
		m, err = horizon.BuildMask(cfg.Scene.Raster, roof, cfg.Suitable, cfg.Horizon, cfg.Workers)
		return m, "", false, err
	}
	var restored horizon.Map
	if cfg.Cache.Load(kindHorizon, fp, &restored) && restored.Region() == roof &&
		restored.BuildOptions() == cfg.Horizon.Resolved(cfg.Scene.Raster.CellSize()) {
		return &restored, fp, true, nil
	}
	// A miss, or a verified artifact of the wrong shape: recompute
	// rather than trust it.
	m, err = horizon.BuildMask(cfg.Scene.Raster, roof, cfg.Suitable, cfg.Horizon, cfg.Workers)
	if err != nil {
		return nil, fp, false, err
	}
	// A failed store only loses the warm start for the next process;
	// the computation in hand is unaffected.
	_ = cfg.Cache.Store(kindHorizon, fp, m)
	return m, fp, false, nil
}

// TileHorizon builds (or restores) the tile-level shared horizon map
// covering every given region of the raster: the union of the regions
// is ray-marched in one pass — each unique cell once, however many
// regions overlap it — and the roof views district runs need are
// sliced from the result (see horizon.Map.Slice), bit-identical to
// per-roof builds. With a non-nil cache the whole tile map is stored
// as a single artifact keyed by the raster content, the region list
// and the resolved options, so a warm district run restores one entry
// instead of ray-marching (or loading) one map per roof. workers
// bounds the build concurrency (0 = one per CPU); the map is
// bit-identical for every value. The returned flag reports a cache
// hit.
func TileHorizon(r *dsm.Raster, regions []geom.Rect, opts horizon.Options, workers int, cache *fieldcache.Cache) (*horizon.Map, bool, error) {
	if cache == nil {
		m, err := horizon.BuildRegions(r, regions, opts, workers)
		return m, false, err
	}
	o := opts.Resolved(r.CellSize())
	fp := tileHorizonFingerprint(r, regions, o)
	var bbox geom.Rect
	for i, reg := range regions {
		if i == 0 {
			bbox = reg
		} else {
			bbox = bbox.Union(reg)
		}
	}
	// The restored map records the options it was marched with, and
	// they must be the ones the fingerprint names.
	var restored horizon.Map
	if cache.Load(kindTileHorizon, fp, &restored) && restored.Region() == bbox && restored.BuildOptions() == o {
		return &restored, true, nil
	}
	m, err := horizon.BuildRegions(r, regions, opts, workers)
	if err != nil {
		return nil, false, err
	}
	_ = cache.Store(kindTileHorizon, fp, m)
	return m, false, nil
}

// tileHorizonFingerprint keys the tile map of regions over r marched
// with the resolved options o.
func tileHorizonFingerprint(r *dsm.Raster, regions []geom.Rect, o horizon.Options) string {
	return fmt.Sprintf("tilehorizon-v1|%s|%v|%d|%x|%x|%x|%x|%x",
		r.ContentHash(), regions,
		o.Sectors, o.MaxDistanceM, o.NearStepM, o.NearFieldM, o.FarStepM, o.EyeHeightM)
}

// statsFingerprint composes the statistics cache key prefix for the
// configuration: the horizon fingerprint (DSM + region + options), the
// calendar, the site and turbidity climatology, the weather
// realisation, the suitability mask and the histogram layout. It
// returns "" — disabling statistics caching — when no cache is
// configured.
func statsFingerprint(cfg Config, horizonFP string) string {
	if cfg.Cache == nil || horizonFP == "" {
		return ""
	}
	// The roof plane's slope and aspect feed the transposition, so
	// they are part of the statistics identity even though they are
	// carried on the Scene rather than the raster.
	plane := cfg.Scene.RoofPlane
	return fmt.Sprintf("%s|%s|%s|%x|%x|%x|%x|%x|%x|%s|%s|g%d[%g,%g]t%d[%g,%g]",
		statsVersion, horizonFP, cfg.Grid.Fingerprint(),
		cfg.Site.LatDeg, cfg.Site.LonDeg, cfg.Site.AltitudeM,
		plane.SlopeRad(), plane.AspectRad(),
		cfg.MonthlyTL, cfg.Weather.Fingerprint(), maskDigest(cfg.Suitable),
		gBins, gLo, gHi, tBins, tLo, tHi)
}

// maskDigest hashes the suitable mask's exact cell set.
func maskDigest(m *geom.Mask) string {
	h := sha256.New()
	row := make([]byte, m.W())
	for y := 0; y < m.H(); y++ {
		for x := 0; x < m.W(); x++ {
			b := byte(0)
			if m.Get(geom.Cell{X: x, Y: y}) {
				b = 1
			}
			row[x] = b
		}
		h.Write(row)
	}
	return fmt.Sprintf("%dx%d-%x", m.W(), m.H(), h.Sum(nil))
}

// loadCachedStats serves a statistics result from the artifact cache
// when available. Loaded results are shape-checked against the mask
// before being trusted.
func (e *Evaluator) loadCachedStats(pct float64) (*CellStats, bool) {
	if e.statsFP == "" {
		return nil, false
	}
	var cs CellStats
	if !e.cfg.Cache.Load(kindStats, fmt.Sprintf("%s|p%x", e.statsFP, pct), &cs) {
		return nil, false
	}
	if cs.W != e.cfg.Suitable.W() || cs.H != e.cfg.Suitable.H() || cs.Pct != pct ||
		len(cs.GPct) != cs.W*cs.H || len(cs.GMean) != cs.W*cs.H || len(cs.TactPct) != cs.W*cs.H {
		return nil, false
	}
	return &cs, true
}

// storeCachedStats publishes a freshly computed statistics result.
func (e *Evaluator) storeCachedStats(pct float64, cs *CellStats) {
	if e.statsFP == "" {
		return
	}
	_ = e.cfg.Cache.Store(kindStats, fmt.Sprintf("%s|p%x", e.statsFP, pct), cs)
}

// statsHeaderLen is the fixed head of the CellStats encoding: W, H,
// Pct and Samples.
const statsHeaderLen = 4 * 8

// MarshalBinary encodes the statistics as little-endian bits: W and H
// as int64, Pct as float64, Samples as uint64, then GPct, GMean and
// TactPct as raw float64 bits, so NaN "no data" cells (and every other
// bit pattern) survive a round trip exactly.
func (cs *CellStats) MarshalBinary() ([]byte, error) {
	cells := cs.W * cs.H
	if cs.W < 0 || cs.H < 0 || len(cs.GPct) != cells || len(cs.GMean) != cells || len(cs.TactPct) != cells {
		return nil, fmt.Errorf("field: cell stats arrays do not match %dx%d", cs.W, cs.H)
	}
	b := make([]byte, 0, statsHeaderLen+3*8*cells)
	b = binary.LittleEndian.AppendUint64(b, uint64(int64(cs.W)))
	b = binary.LittleEndian.AppendUint64(b, uint64(int64(cs.H)))
	b = binary.LittleEndian.AppendUint64(b, math.Float64bits(cs.Pct))
	b = binary.LittleEndian.AppendUint64(b, cs.Samples)
	for _, arr := range [...][]float64{cs.GPct, cs.GMean, cs.TactPct} {
		for _, v := range arr {
			b = binary.LittleEndian.AppendUint64(b, math.Float64bits(v))
		}
	}
	return b, nil
}

// UnmarshalBinary decodes a MarshalBinary encoding into cs. The body
// must hold exactly three W×H arrays, checked before anything is
// allocated, so a truncated or inconsistent encoding is an error and
// no header can size an allocation beyond the input.
func (cs *CellStats) UnmarshalBinary(data []byte) error {
	if len(data) < statsHeaderLen {
		return fmt.Errorf("field: %d-byte cell stats encoding is shorter than its header", len(data))
	}
	w := int64(binary.LittleEndian.Uint64(data))
	h := int64(binary.LittleEndian.Uint64(data[8:]))
	body := data[statsHeaderLen:]
	n := int64(len(body) / 24) // cells the body can hold
	if w < 0 || h < 0 || len(body)%24 != 0 || (w > 0 && h > n/w) || w*h != n {
		return fmt.Errorf("field: %d-byte cell stats body does not match %dx%d", len(body), w, h)
	}
	arrs := [3][]float64{}
	for k := range arrs {
		arrs[k] = make([]float64, n)
		for i := range arrs[k] {
			arrs[k][i] = math.Float64frombits(binary.LittleEndian.Uint64(body[8*i:]))
		}
		body = body[8*n:]
	}
	*cs = CellStats{
		W:       int(w),
		H:       int(h),
		Pct:     math.Float64frombits(binary.LittleEndian.Uint64(data[16:])),
		GPct:    arrs[0],
		GMean:   arrs[1],
		TactPct: arrs[2],
		Samples: binary.LittleEndian.Uint64(data[24:]),
	}
	return nil
}
