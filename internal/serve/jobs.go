package serve

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"path/filepath"
	"sync"

	pvfloor "repro"
	"repro/internal/jobs"
)

// This file is the async job surface: submit → poll → fetch for city
// runs that outlive any sane HTTP request. A submitted job is durably
// recorded in the server's job store before the 202 goes out, executed
// by a background goroutine under the same run-slot pool as the
// synchronous endpoints, checkpointed tile by tile into its own job
// directory, and — after a crash or graceful shutdown — resumed by the
// next process to open the same store, re-running only unfinished
// tiles.
//
//	POST /v1/jobs             submit, 202 {manifest}
//	GET  /v1/jobs             list all manifests, newest first
//	GET  /v1/jobs/{id}        one manifest (poll this)
//	GET  /v1/jobs/{id}/result the final CityReport (409 until done)
//	POST /v1/jobs/{id}/cancel cancel a queued or running job

// JobRequest is the body of POST /v1/jobs. Exactly one work kind must
// be set; today that is City (the only pipeline long enough to need
// the async surface).
type JobRequest struct {
	City *CityRequest `json:"city"`
}

// JobListResponse is the body of GET /v1/jobs.
type JobListResponse struct {
	Jobs []jobs.Manifest `json:"jobs"`
}

// errNoJobStore answers the job endpoints on a server without a store.
var errNoJobStore = errors.New("no job store configured (start pvserve with -jobs-dir)")

// jobRun tracks one executing job's cancellation seam: cancel aborts
// the run's context, and requested distinguishes a client cancel from
// a server shutdown when mapping the run error to a terminal state.
type jobRun struct {
	cancel    context.CancelFunc
	requested sync.Once
	wasCancel bool
	mu        sync.Mutex
}

func (r *jobRun) requestCancel() {
	r.mu.Lock()
	r.wasCancel = true
	r.mu.Unlock()
	r.cancel()
}

func (r *jobRun) cancelRequested() bool {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.wasCancel
}

func (s *Server) handleJobSubmit(w http.ResponseWriter, r *http.Request) {
	if s.jobs == nil {
		writeError(w, http.StatusServiceUnavailable, errNoJobStore)
		return
	}
	if s.draining() {
		writeError(w, http.StatusServiceUnavailable, errors.New("server is shutting down"))
		return
	}
	var req JobRequest
	if !s.decode(w, r, &req) {
		return
	}
	if req.City == nil {
		writeError(w, http.StatusBadRequest, errors.New("job request needs a city payload"))
		return
	}
	// Validate everything except the raster decode now, so a bad
	// request fails the submit, not the background run. A tile_ref is
	// resolved too: a ref the store has never seen should 404 here,
	// not fail a job hours later.
	if _, err := s.cityRunConfig(*req.City); err != nil {
		writeTileError(w, err)
		return
	}
	if req.City.TileRef != "" {
		if _, err := s.tiles.Path(req.City.TileRef); err != nil {
			writeTileError(w, err)
			return
		}
	}
	raw, err := json.Marshal(req)
	if err != nil {
		writeError(w, http.StatusInternalServerError, err)
		return
	}
	j, err := s.jobs.Create("city", raw)
	if err != nil {
		writeError(w, http.StatusInternalServerError, err)
		return
	}
	// Snapshot before the run starts, so the 202 always reports the
	// job as created (queued), never a state the runner raced into.
	m := j.Manifest()
	s.jobWG.Add(1)
	go s.runJob(j)
	writeJSON(w, http.StatusAccepted, m)
}

func (s *Server) handleJobList(w http.ResponseWriter, r *http.Request) {
	if s.jobs == nil {
		writeError(w, http.StatusServiceUnavailable, errNoJobStore)
		return
	}
	writeJSON(w, http.StatusOK, JobListResponse{Jobs: s.jobs.List()})
}

// jobFromPath resolves the {id} path value, answering 404/503 itself.
func (s *Server) jobFromPath(w http.ResponseWriter, r *http.Request) (*jobs.Job, bool) {
	if s.jobs == nil {
		writeError(w, http.StatusServiceUnavailable, errNoJobStore)
		return nil, false
	}
	id := r.PathValue("id")
	j, ok := s.jobs.Get(id)
	if !ok {
		writeError(w, http.StatusNotFound, fmt.Errorf("no job %q", id))
		return nil, false
	}
	return j, true
}

func (s *Server) handleJobGet(w http.ResponseWriter, r *http.Request) {
	j, ok := s.jobFromPath(w, r)
	if !ok {
		return
	}
	writeJSON(w, http.StatusOK, j.Manifest())
}

func (s *Server) handleJobResult(w http.ResponseWriter, r *http.Request) {
	j, ok := s.jobFromPath(w, r)
	if !ok {
		return
	}
	m := j.Manifest()
	if m.State != jobs.Done {
		writeError(w, http.StatusConflict,
			fmt.Errorf("job %s is %s, not done (%d/%d tiles)", m.ID, m.State, m.TilesDone(), m.Tiles))
		return
	}
	raw, err := j.ResultBytes()
	if err != nil {
		writeError(w, http.StatusInternalServerError, err)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(http.StatusOK)
	_, _ = w.Write(raw)
}

func (s *Server) handleJobCancel(w http.ResponseWriter, r *http.Request) {
	j, ok := s.jobFromPath(w, r)
	if !ok {
		return
	}
	// A queued job cancels by transition (the runner's queued→running
	// step then fails and it parks); a running one by aborting its
	// context, which the runner maps to cancelled. Both are accepted;
	// re-cancelling a terminal job is a 409.
	if run, ok := s.jobRuns.Load(j.ID()); ok {
		run.(*jobRun).requestCancel()
		writeJSON(w, http.StatusAccepted, j.Manifest())
		return
	}
	if err := j.Transition(jobs.Cancelled, "cancelled by request"); err != nil {
		writeError(w, http.StatusConflict, err)
		return
	}
	writeJSON(w, http.StatusAccepted, j.Manifest())
}

// runJob executes one stored job end to end: wait for a run slot
// (unbounded — the job is durably queued), rebuild the city config
// from the persisted request, run with a per-job checkpoint under the
// job's own directory, and map the outcome to a terminal (or
// resumable) state. Every path decrements jobWG so Shutdown can wait
// for quiescence.
func (s *Server) runJob(j *jobs.Job) {
	defer s.jobWG.Done()
	release, err := s.pool.acquireJob(s.jobCtx)
	if err != nil {
		return // shutting down; the job stays queued for the next start
	}
	defer release()

	ctx, cancel := context.WithCancel(s.jobCtx)
	defer cancel()
	run := &jobRun{cancel: cancel}
	s.jobRuns.Store(j.ID(), run)
	defer s.jobRuns.Delete(j.ID())
	// The job runs from here on, so a stored request that cannot start
	// fails (a queued job cannot).
	if err := j.Transition(jobs.Running, ""); err != nil {
		return // cancelled while queued
	}
	fail := func(err error) {
		_ = j.Transition(jobs.Failed, err.Error())
	}
	var req JobRequest
	if err := json.Unmarshal(j.Manifest().Request, &req); err != nil || req.City == nil {
		fail(fmt.Errorf("stored request is unusable: %v", err))
		return
	}
	// A stored request may come from an earlier server: one naming an
	// inline tile_asc grid (no longer decoded) has no tile left, and a
	// tile_ref needs a tile store this process may lack.
	cfg, err := s.cityRunConfig(*req.City)
	if err != nil {
		fail(err)
		return
	}
	// A tile_ref job re-opens the uploaded tile through the windowed
	// reader — the manifest persists only the ref, so a resumed job on
	// a restarted process rebuilds its source from the tile store.
	closeSrc, err := s.openCitySource(&cfg, req.City.DistrictRequest)
	if err != nil {
		fail(err)
		return
	}
	defer closeSrc()
	ck, err := pvfloor.NewDirCheckpoint(filepath.Join(j.Dir(), "tiles"))
	if err != nil {
		fail(err)
		return
	}
	cfg.Checkpoint = jobCheckpoint{inner: ck, job: j}
	cfg.Drain = s.drain
	cfg.Context = ctx
	var tilesOnce sync.Once
	cfg.Progress = func(ev pvfloor.CityEvent) {
		tilesOnce.Do(func() { _ = j.SetTiles(ev.Tiles) })
	}
	if s.cityHook != nil {
		s.cityHook(&cfg)
	}
	res, err := pvfloor.RunCity(cfg)
	switch {
	case err == nil:
		if werr := j.WriteResult(pvfloor.NewCityReport(res)); werr != nil {
			fail(fmt.Errorf("persisting result: %w", werr))
			return
		}
		_ = j.Transition(jobs.Done, "")
	case run.cancelRequested():
		_ = j.Transition(jobs.Cancelled, "cancelled by request")
	case errors.Is(err, pvfloor.ErrInterrupted), errors.Is(err, context.Canceled):
		// Drained (graceful shutdown) or hard-cancelled at the
		// shutdown deadline: the checkpoint holds every finished tile,
		// so the next process resumes from here.
		_ = j.Transition(jobs.Interrupted, "server shutdown")
	default:
		fail(err)
	}
}

// jobCheckpoint tees the city pipeline's tile checkpoint into the job
// manifest: the per-tile record directory stays the resume truth, and
// the manifest mirrors each terminal tile so polling clients see
// progress without touching the checkpoint files.
type jobCheckpoint struct {
	inner pvfloor.CityCheckpoint
	job   *jobs.Job
}

func (c jobCheckpoint) Lookup(tile int) (*pvfloor.TileRecord, error) {
	rec, err := c.inner.Lookup(tile)
	if rec != nil && err == nil {
		// A replayed tile is terminal too: mirror it so a resumed
		// job's manifest converges on the full tile census (the upsert
		// is idempotent).
		if merr := c.job.RecordTile(tileStatus(rec.Info)); merr != nil {
			return nil, merr
		}
	}
	return rec, err
}

func (c jobCheckpoint) Commit(tile int, rec *pvfloor.TileRecord) error {
	if err := c.inner.Commit(tile, rec); err != nil {
		return err
	}
	return c.job.RecordTile(tileStatus(rec.Info))
}

func tileStatus(ti pvfloor.CityTileInfo) jobs.TileStatus {
	ts := jobs.TileStatus{Index: ti.Index, State: "done", Attempts: ti.Attempts}
	switch {
	case ti.Failed != "":
		ts.State = "failed"
		ts.Error = ti.Failed
	case ti.Skipped != "":
		ts.State = "skipped"
	}
	return ts
}

// ResumeJobs re-enqueues every queued or interrupted job in the store
// — call once after New on a server that owns a job store. Returns the
// number of jobs handed to the runner.
func (s *Server) ResumeJobs() int {
	if s.jobs == nil {
		return 0
	}
	resumed := 0
	for _, j := range s.jobs.Resumable() {
		if j.Manifest().State == jobs.Interrupted {
			if err := j.Transition(jobs.Queued, "re-enqueued on restart"); err != nil {
				continue
			}
		}
		s.jobWG.Add(1)
		go s.runJob(j)
		resumed++
	}
	return resumed
}

// draining reports whether Shutdown has begun.
func (s *Server) draining() bool {
	select {
	case <-s.drain:
		return true
	default:
		return false
	}
}

// Shutdown gracefully stops the background job runners: the drain
// channel closes (no new tile starts; in-flight tiles finish and
// checkpoint), new submissions bounce with 503, and Shutdown blocks
// until every runner has parked its job — done, failed, cancelled or
// interrupted, all durably recorded for the next ResumeJobs. If ctx
// expires first, the runners are hard-cancelled (their jobs still
// park as interrupted, resumable from their last committed tile) and
// ctx.Err is returned after they exit.
func (s *Server) Shutdown(ctx context.Context) error {
	s.drainOnce.Do(func() { close(s.drain) })
	done := make(chan struct{})
	go func() {
		s.jobWG.Wait()
		close(done)
	}()
	select {
	case <-done:
		return nil
	case <-ctx.Done():
		s.jobCancel()
		<-done
		return ctx.Err()
	}
}
