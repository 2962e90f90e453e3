package serve

import (
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"
	"time"

	pvfloor "repro"
	"repro/internal/econ"
	"repro/internal/jobs"
	"repro/internal/scenario"
)

// waitFor polls until the condition holds (tests only).
func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
		time.Sleep(time.Millisecond)
	}
}

// newTestServer builds a server sized for tests: enough pool capacity
// that requests never queue unless a test wants them to.
func newTestServer(t *testing.T, opts Options) *Server {
	t.Helper()
	if opts.MaxConcurrentRuns == 0 {
		opts.MaxConcurrentRuns = 4
	}
	if opts.Concurrency == 0 {
		opts.Concurrency = 2
	}
	if opts.FieldWorkers == 0 {
		opts.FieldWorkers = 2
	}
	s, err := New(opts)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func postJSON(t *testing.T, s *Server, path, body string) *httptest.ResponseRecorder {
	t.Helper()
	req := httptest.NewRequest(http.MethodPost, path, strings.NewReader(body))
	req.Header.Set("Content-Type", "application/json")
	w := httptest.NewRecorder()
	s.ServeHTTP(w, req)
	return w
}

func TestHealthz(t *testing.T) {
	s := newTestServer(t, Options{})
	req := httptest.NewRequest(http.MethodGet, "/healthz", nil)
	w := httptest.NewRecorder()
	s.ServeHTTP(w, req)
	if w.Code != http.StatusOK {
		t.Fatalf("healthz status = %d, want 200", w.Code)
	}
	var h Health
	if err := json.Unmarshal(w.Body.Bytes(), &h); err != nil {
		t.Fatal(err)
	}
	if h.Status != "ok" || h.Capacity != 4 || h.Running != 0 {
		t.Fatalf("healthz payload = %+v", h)
	}
}

// requestValidationCases are the rejection rows of
// TestRequestValidation; FuzzRequestConfig seeds its corpus from their
// bodies.
var requestValidationCases = []struct {
	name, path, body, wantErr string
}{
	{"malformed json", "/v1/run", `{"scenario":`, "invalid request body"},
	{"unknown field", "/v1/run", `{"scenario":"roof1","modules":8,"bogus":1}`, "bogus"},
	{"unknown scenario", "/v1/run", `{"scenario":"roof9","modules":8}`, "unknown scenario"},
	{"zero modules", "/v1/run", `{"scenario":"roof1"}`, "multiple of 8"},
	{"ragged modules", "/v1/run", `{"scenario":"roof1","modules":12}`, "multiple of 8"},
	{"bad fidelity", "/v1/run", `{"scenario":"roof1","modules":8,"fidelity":"warp"}`, "unknown fidelity"},
	{"bad strategy", "/v1/run", `{"scenario":"roof1","modules":8,"optimizer":{"strategy":"magic"}}`, "unknown optimizer strategy"},
	{"negative iterations", "/v1/run", `{"scenario":"roof1","modules":8,"optimizer":{"strategy":"multistart","iterations":-5}}`, "iterations -5"},
	{"huge iterations", "/v1/run", `{"scenario":"roof1","modules":8,"optimizer":{"strategy":"multistart","iterations":1000000000}}`, "iterations 1000000000"},
	{"negative restarts", "/v1/run", `{"scenario":"roof1","modules":8,"optimizer":{"strategy":"multistart","restarts":-3}}`, "restarts -3"},
	{"huge restarts", "/v1/run", `{"scenario":"roof1","modules":8,"optimizer":{"strategy":"multistart","restarts":100000}}`, "restarts 100000"},
	{"negative search workers", "/v1/run", `{"scenario":"roof1","modules":8,"optimizer":{"strategy":"multistart","search_workers":-1}}`, "search_workers"},
	{"negative wiring weight", "/v1/run", `{"scenario":"roof1","modules":8,"optimizer":{"wiring_weight":-0.5}}`, "wiring_weight"},
	{"retired anneal strategy", "/v1/run", `{"scenario":"roof1","modules":8,"optimizer":{"strategy":"anneal"}}`, "unknown optimizer strategy"},
	{"retired search workers", "/v1/run", `{"scenario":"roof1","modules":8,"optimizer":{"strategy":"multistart","search_workers":2}}`, "search_workers"},
	{"retired wiring weight", "/v1/run", `{"scenario":"roof1","modules":8,"optimizer":{"wiring_weight":0.5}}`, "wiring_weight"},
	{"retired no wiring penalty", "/v1/run", `{"scenario":"roof1","modules":8,"optimizer":{"no_wiring_penalty":true}}`, "no_wiring_penalty"},
	{"batch huge restarts", "/v1/batch", `{"runs":[{"scenario":"roof1","modules":8},{"scenario":"roof1","modules":8,"optimizer":{"strategy":"multistart","restarts":100000}}]}`, "runs[1]"},
	{"district negative iterations", "/v1/district", `{"demo":true,"optimizer":{"strategy":"multistart","iterations":-5}}`, "iterations -5"},
	{"empty batch", "/v1/batch", `{"runs":[]}`, "empty batch"},
	{"batch bad entry", "/v1/batch", `{"runs":[{"scenario":"roof1","modules":8},{"scenario":"nope","modules":8}]}`, "runs[1]"},
	{"district no tile", "/v1/district", `{}`, "exactly one of tile_ref or demo"},
	{"district tile+demo", "/v1/district", `{"demo":true,"tile_ref":"asc-ffff"}`, "mutually exclusive"},
	{"district ref+asc", "/v1/district", `{"tile_ref":"asc-ffff","tile_asc":"ncols 1"}`, `unknown field "tile_asc"`},
	{"district bad tile", "/v1/district", `{"tile_asc":"not a grid"}`, `unknown field "tile_asc"`},
	{"district ragged modules", "/v1/district", `{"demo":true,"modules":3}`, "multiple of 8"},
	{"district bad rank-by", "/v1/district", `{"demo":true,"econ":{"rank_by":"alphabetical"}}`, "unknown rank-by"},
	{"district negative budget", "/v1/district", `{"demo":true,"econ":{"budget_usd":-1}}`, "negative budget"},
	{"district bad panel class", "/v1/district", `{"demo":true,"econ":{"catalog":[{"name":"x","watts_stc":0}]}}`, "nameplate"},
	{"city overflowing tile timeout", "/v1/city", `{"demo":true,"tile_timeout_ms":10000000000000}`, "tile_timeout_ms 10000000000000"},
	{"city huge tile timeout", "/v1/city", `{"demo":true,"tile_timeout_ms":3600001}`, "tile_timeout_ms 3600001"},
	{"city huge backoff", "/v1/city", `{"demo":true,"backoff_ms":3600001}`, "backoff_ms 3600001"},
	{"city huge tile retries", "/v1/city", `{"demo":true,"tile_retries":17}`, "tile_retries 17"},
	{"job overflowing backoff", "/v1/jobs", `{"city":{"demo":true,"backoff_ms":10000000000000}}`, "backoff_ms 10000000000000"},
	{"job huge tile timeout", "/v1/jobs", `{"city":{"demo":true,"tile_timeout_ms":3600001}}`, "tile_timeout_ms 3600001"},
	{"job huge tile retries", "/v1/jobs", `{"city":{"demo":true,"tile_retries":17}}`, "tile_retries 17"},
}

// TestRequestValidation walks every rejection path: malformed bodies,
// unknown fields, bad scenario/fidelity/strategy names, module counts
// off the 8-string grid, and contradictory tile selections. All must
// answer 400 with a JSON error body before any pipeline work starts.
func TestRequestValidation(t *testing.T) {
	store, err := jobs.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	s := newTestServer(t, Options{Jobs: store})
	for _, tc := range requestValidationCases {
		t.Run(tc.name, func(t *testing.T) {
			w := postJSON(t, s, tc.path, tc.body)
			if w.Code != http.StatusBadRequest {
				t.Fatalf("status = %d, want 400 (body %s)", w.Code, w.Body)
			}
			var eb errorBody
			if err := json.Unmarshal(w.Body.Bytes(), &eb); err != nil {
				t.Fatalf("error body is not JSON: %v (%s)", err, w.Body)
			}
			if eb.Error.Code != "invalid_request" {
				t.Fatalf("error code %q, want invalid_request", eb.Error.Code)
			}
			if !strings.Contains(eb.Error.Message, tc.wantErr) {
				t.Fatalf("error %q does not mention %q", eb.Error.Message, tc.wantErr)
			}
		})
	}
}

func TestMethodNotAllowed(t *testing.T) {
	s := newTestServer(t, Options{})
	req := httptest.NewRequest(http.MethodGet, "/v1/run", nil)
	w := httptest.NewRecorder()
	s.ServeHTTP(w, req)
	if w.Code != http.StatusMethodNotAllowed {
		t.Fatalf("GET /v1/run status = %d, want 405", w.Code)
	}
}

// goldenRunResidential reads the committed single-run golden so the
// service response can be checked float-exact against the corpus.
func goldenRunResidential(t *testing.T) (digest string, proposedNet, traditionalNet float64) {
	t.Helper()
	raw, err := os.ReadFile(filepath.Join("..", "..", "testdata", "golden", "run_residential_n8.json"))
	if err != nil {
		t.Fatal(err)
	}
	var g struct {
		GPctDigest string `json:"gpct_digest"`
		Proposed   struct {
			NetMWh float64 `json:"net_mwh"`
		} `json:"proposed"`
		Traditional struct {
			NetMWh float64 `json:"net_mwh"`
		} `json:"traditional"`
	}
	if err := json.Unmarshal(raw, &g); err != nil {
		t.Fatal(err)
	}
	return g.GPctDigest, g.Proposed.NetMWh, g.Traditional.NetMWh
}

// TestRunEndpointMatchesGolden pins the synchronous endpoint against
// the golden corpus: same energies, same statistics digest.
func TestRunEndpointMatchesGolden(t *testing.T) {
	s := newTestServer(t, Options{})
	w := postJSON(t, s, "/v1/run", `{"scenario":"residential","modules":8}`)
	if w.Code != http.StatusOK {
		t.Fatalf("status = %d: %s", w.Code, w.Body)
	}
	var rep RunReport
	if err := json.Unmarshal(w.Body.Bytes(), &rep); err != nil {
		t.Fatal(err)
	}
	digest, prop, trad := goldenRunResidential(t)
	if rep.GPctDigest != digest {
		t.Errorf("gpct_digest = %s, want golden %s", rep.GPctDigest, digest)
	}
	if rep.ProposedMWh != prop {
		t.Errorf("proposed_mwh = %v, want golden %v", rep.ProposedMWh, prop)
	}
	if rep.TraditionalMWh != trad {
		t.Errorf("traditional_mwh = %v, want golden %v", rep.TraditionalMWh, trad)
	}
	if rep.Modules != 8 || rep.Name == "" {
		t.Errorf("report = %+v", rep)
	}
}

func TestPoolAdmission(t *testing.T) {
	p := newPool(1, 1)
	rel1, err := p.acquire(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	// One more may queue; it must give up when its context dies.
	ctx, cancel := context.WithCancel(context.Background())
	queuedErr := make(chan error, 1)
	go func() {
		_, err := p.acquire(ctx)
		queuedErr <- err
	}()
	// Wait until the queued request is admitted, then a third must
	// bounce immediately with errBusy.
	waitFor(t, "queued acquire", func() bool { _, q := p.gauges(); return q > 0 })
	if _, err := p.acquire(context.Background()); err == nil {
		t.Fatal("third acquire succeeded, want busy rejection")
	} else if !strings.Contains(err.Error(), "busy") {
		t.Fatalf("third acquire error = %v, want busy", err)
	}
	cancel()
	if err := <-queuedErr; err != context.Canceled {
		t.Fatalf("queued acquire error = %v, want context.Canceled", err)
	}
	rel1()
	// The pool drains back to empty.
	rel2, err := p.acquire(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	rel2()
	if running, queued := p.gauges(); running != 0 || queued != 0 {
		t.Fatalf("gauges after drain = %d running, %d queued", running, queued)
	}
}

func TestScenarioNamesAndSharing(t *testing.T) {
	names := scenario.Names()
	sort.Strings(names)
	want := []string{"residential", "roof1", "roof2", "roof3"}
	if len(names) != len(want) {
		t.Fatalf("scenario.Names = %v", names)
	}
	for i := range want {
		if names[i] != want[i] {
			t.Fatalf("scenario.Names = %v, want %v", names, want)
		}
	}
	a, err := lookupScenario("Roof1")
	if err != nil {
		t.Fatal(err)
	}
	b, err := lookupScenario("roof1")
	if err != nil {
		t.Fatal(err)
	}
	if a != b {
		t.Fatal("lookupScenario did not memoise: two instances for one name")
	}
	c, err := lookupScenario(" 1 ")
	if err != nil {
		t.Fatal(err)
	}
	if c != a {
		t.Fatal("lookupScenario did not share one instance between roof1 and its alias 1")
	}
}

// TestBusyMapsTo503 exercises the admission-control rejection through
// the HTTP layer: with a zero-capacity-equivalent pool (slot taken,
// no queue), a request bounces with 503 + Retry-After.
func TestBusyMapsTo503(t *testing.T) {
	s := newTestServer(t, Options{MaxConcurrentRuns: 1, QueueDepth: 1, Concurrency: 1, FieldWorkers: 1})
	// Fill the slot and the single queue spot out-of-band; the next
	// request must bounce with 503 before touching the pipeline.
	rel, err := s.pool.acquire(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	queueCtx, releaseQueued := context.WithCancel(context.Background())
	done := make(chan struct{})
	go func() {
		defer close(done)
		if rel2, err := s.pool.acquire(queueCtx); err == nil {
			rel2()
		}
	}()
	waitFor(t, "queued request", func() bool { _, q := s.pool.gauges(); return q > 0 })
	w := postJSON(t, s, "/v1/run", `{"scenario":"roof1","modules":8}`)
	if w.Code != http.StatusServiceUnavailable {
		t.Fatalf("status = %d, want 503 (body %s)", w.Code, w.Body)
	}
	if w.Header().Get("Retry-After") == "" {
		t.Error("503 without Retry-After")
	}
	releaseQueued()
	<-done
	rel()
}

// TestEconRequestMapping pins the request → engine mapping of the
// econ block: its presence enables the pass, and a partial financial
// override starts from the Turin-2018 defaults instead of zeroing
// the rest.
func TestEconRequestMapping(t *testing.T) {
	s := newTestServer(t, Options{})
	cfg, err := s.districtConfig(DistrictRequest{
		Econ: &EconRequest{RankBy: "npv", BudgetUSD: 5000, TariffUSDPerKWh: 0.3},
	})
	if err != nil {
		t.Fatal(err)
	}
	ec := cfg.Economics
	if !ec.Enabled {
		t.Fatal("econ block did not enable the pass")
	}
	if ec.RankBy != pvfloor.RankByNPV || ec.BudgetUSD != 5000 {
		t.Errorf("mapped rank_by %q budget %v", ec.RankBy, ec.BudgetUSD)
	}
	want := econ.TurinFeedIn2018()
	if ec.Financials.TariffUSDPerKWh != 0.3 {
		t.Errorf("tariff override %v, want 0.3", ec.Financials.TariffUSDPerKWh)
	}
	if ec.Financials.DiscountRate != want.DiscountRate || ec.Financials.LifetimeYears != want.LifetimeYears {
		t.Errorf("partial override lost the defaults: %+v", ec.Financials)
	}

	plain, err := s.districtConfig(DistrictRequest{})
	if err != nil {
		t.Fatal(err)
	}
	if plain.Economics.Enabled {
		t.Error("econ pass enabled without an econ block")
	}
}
