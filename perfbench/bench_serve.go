package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"

	"epiphany/internal/serve"
	"epiphany/internal/sweep"
	"epiphany/internal/system"
	"epiphany/internal/workload"
)

// serveBench is the serve-mix workload: one client calls the service's
// ServeHTTP in process (no sockets) in a closed loop. Three requests in
// four repeat the hot set filled during set-up and are cache hits; one
// in four carries a fresh seed and is a miss that simulates.
type serveBench struct {
	seed  uint64
	mix   *mix
	srv   *serve.Server
	fills map[int][]byte // hot index -> the miss body that filled it
	cur   request        // the request of the op in flight
	lt    *layerTrace    // the traced phase, while one runs

	replay *workload.Runner // the traced replay's own simulator for misses
}

func newServeBench(seed uint64) (bench, error) {
	return &serveBench{seed: seed}, nil
}

// setup starts a fresh server (one simulation worker) and fills its
// cache with the hot set, one miss per hot request.
func (b *serveBench) setup(context.Context) error {
	srv, err := serve.NewServer(serve.Config{Workers: 1})
	if err != nil {
		return err
	}
	b.srv, b.mix = srv, newMix(b.seed)
	first := b.fills == nil
	if first {
		b.fills = map[int][]byte{}
	}
	for i, req := range b.mix.hot {
		rec := b.post(req)
		if rec.Code != http.StatusOK || rec.Header().Get("X-Epiphany-Cache") != "miss" {
			return fmt.Errorf("hot request %d: status %d, cache %q: %s",
				i, rec.Code, rec.Header().Get("X-Epiphany-Cache"), rec.Body.Bytes())
		}
		if first {
			b.fills[i] = rec.Body.Bytes()
		} else if !bytes.Equal(b.fills[i], rec.Body.Bytes()) {
			return fmt.Errorf("hot request %d: fill body differs from the previous set-up's", i)
		}
	}
	return nil
}

func (b *serveBench) post(req request) *httptest.ResponseRecorder {
	rec := httptest.NewRecorder()
	b.srv.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/jobs", bytes.NewReader(req.body)))
	return rec
}

// op draws the next request and serves it. The op index doubles as the
// generator position, which the closed loop advances one by one.
func (b *serveBench) op(_ context.Context, i int) (any, error) {
	b.cur = b.mix.next(i)
	return b.post(b.cur), nil
}

// check requires status 200, a hit for hot requests with the body that
// filled the entry, and a successful miss for fresh ones. A traced op
// is also replayed through the service's layers (see replayRequest).
func (b *serveBench) check(_ int, out any, traced bool) error {
	rec := out.(*httptest.ResponseRecorder)
	if rec.Code != http.StatusOK {
		return fmt.Errorf("status %d: %s", rec.Code, rec.Body.Bytes())
	}
	if traced {
		if err := b.replayRequest(context.Background(), b.lt, rec.Body.Bytes()); err != nil {
			return err
		}
	}
	cache := rec.Header().Get("X-Epiphany-Cache")
	if b.cur.hot >= 0 {
		if cache != "hit" {
			return fmt.Errorf("hot request %d was a %q, want a hit", b.cur.hot, cache)
		}
		if !bytes.Equal(rec.Body.Bytes(), b.fills[b.cur.hot]) {
			return fmt.Errorf("hit body for hot request %d differs from the miss that filled it", b.cur.hot)
		}
		return nil
	}
	if cache != "miss" {
		return fmt.Errorf("fresh request was a %q, want a miss", cache)
	}
	var resp serve.JobResponse
	if err := json.Unmarshal(rec.Body.Bytes(), &resp); err != nil {
		return err
	}
	if resp.Result.Err != "" || resp.Result.Metrics.TotalFlops == 0 || resp.Cell.Workload != b.cur.spec.Workload {
		return fmt.Errorf("miss result %+v does not answer %s", resp.Result, b.cur.body)
	}
	return nil
}

// tracedOp serves the request inside a span named by its cache outcome.
func (b *serveBench) tracedOp(_ context.Context, i int, lt *layerTrace) (any, error) {
	b.cur, b.lt = b.mix.next(i), lt
	hs := lt.begin("serve.ServeHTTP", lt.root)
	rec := b.post(b.cur)
	lt.end(hs)
	lt.spans[hs-1].Name = "serve.ServeHTTP." + rec.Header().Get("X-Epiphany-Cache")
	return rec, nil
}

// replayRequest replays the served request's path through public
// calls, outside the op's time: decode the spec, resolve and
// fingerprint it (the id must be the served one), and for a miss
// simulate the cell on an instrumented Runner and encode the response,
// which must reproduce the served body byte for byte.
func (b *serveBench) replayRequest(ctx context.Context, lt *layerTrace, body []byte) error {
	root := lt.begin("replay", 0)
	defer lt.end(root)

	ds := lt.begin("serve.decode", root)
	var spec serve.JobSpec
	dec := json.NewDecoder(bytes.NewReader(b.cur.body))
	dec.DisallowUnknownFields()
	err := dec.Decode(&spec)
	lt.end(ds)
	if err != nil {
		return err
	}

	fs := lt.begin("serve.fingerprint", root)
	p, cell, err := resolveSpec(spec)
	var id string
	if err == nil {
		id = p.CellFingerprint(cell)
	}
	lt.end(fs)
	if err != nil {
		return err
	}
	if !bytes.Contains(body, []byte(strconv.Quote(id))) {
		return fmt.Errorf("replayed fingerprint %s is not the served job's id", id)
	}
	if b.cur.hot >= 0 {
		return nil
	}

	if b.replay == nil {
		b.replay = &workload.Runner{Workers: 1}
	}
	job, cores, err := p.CellJob(cell)
	if err != nil {
		return err
	}
	js := lt.begin("workload.RunJob", root)
	job.Workload = lt.wrap(job.Workload, js)
	jr := b.replay.RunJob(ctx, job)
	lt.end(js)
	res := sweep.NewCellResult(cell, cores, jr)

	es := lt.begin("serve.encode", root)
	enc, err := json.MarshalIndent(serve.JobResponse{ID: id, Cell: cell, Power: p.Power, Result: res}, "", "  ")
	lt.end(es)
	if err != nil {
		return err
	}
	if !bytes.Equal(append(enc, '\n'), body) {
		return errors.New("replayed miss body differs from the served one")
	}
	return nil
}

// resolveSpec canonicalizes a job spec into its one-cell plan the way
// the service documents it: the topology spelling through
// sweep.ParseTopo (e64 when empty), then Normalize and Expand.
func resolveSpec(spec serve.JobSpec) (sweep.Plan, sweep.Cell, error) {
	p := sweep.Plan{Workloads: []string{spec.Workload}, Power: spec.Power}
	p.Topos = []sweep.Topo{{Preset: "e64"}}
	if spec.Topo != "" {
		t, err := sweep.ParseTopo(spec.Topo)
		if err != nil {
			return p, sweep.Cell{}, err
		}
		p.Topos = []sweep.Topo{t}
	}
	if spec.DVFS != "" {
		p.DVFS = []string{spec.DVFS}
	}
	if spec.Seed != nil {
		p.Seeds = []uint64{*spec.Seed}
	}
	p, err := p.Normalize()
	if err != nil {
		return p, sweep.Cell{}, err
	}
	return p, p.Expand()[0], nil
}

// finishTrace reads the per-request cache and stage figures off the
// service's own GET /metrics and probes board construction and Reset on
// the mix's topologies.
func (b *serveBench) finishTrace(ctx context.Context, lt *layerTrace, m metrics) error {
	rec := httptest.NewRecorder()
	b.srv.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/metrics", nil))
	if rec.Code != http.StatusOK {
		return fmt.Errorf("GET /metrics: status %d", rec.Code)
	}
	prom := parseProm(rec.Body.String())
	hits, misses := prom["epiphany_cache_hits_total"], prom["epiphany_cache_misses_total"]
	if hits+misses > 0 {
		m["serve.hit_ratio"] = metric{hits / (hits + misses), "ratio"}
	}
	for _, stage := range []string{"queue", "simulate", "render"} {
		sum := prom[`epiphany_request_stage_seconds_sum{stage="`+stage+`"}`]
		n := prom[`epiphany_request_stage_seconds_count{stage="`+stage+`"}`]
		if n > 0 {
			m["serve.stage_"+stage+"_s"] = metric{sum / n, "s"}
		}
	}
	m["serve.hit_ms"] = metric{percentile(lt.durations("serve.ServeHTTP.hit"), 50), "ms"}
	m["serve.miss_ms"] = metric{percentile(lt.durations("serve.ServeHTTP.miss"), 50), "ms"}
	m["serve.fingerprint_ms"] = metric{percentile(lt.durations("serve.fingerprint"), 50), "ms"}

	topos := make([]system.Topology, len(mixTopos))
	for i, name := range mixTopos {
		var err error
		if topos[i], err = system.ParseTopologySpec(name); err != nil {
			return err
		}
	}
	return probeStencil(ctx, lt, topos)
}

// parseProm reads a Prometheus text exposition into series -> value
// (the series keeps its label set verbatim).
func parseProm(text string) map[string]float64 {
	out := map[string]float64{}
	sc := bufio.NewScanner(strings.NewReader(text))
	for sc.Scan() {
		line := sc.Text()
		if line == "" || line[0] == '#' {
			continue
		}
		i := strings.LastIndexByte(line, ' ')
		if i < 0 {
			continue
		}
		if v, err := strconv.ParseFloat(line[i+1:], 64); err == nil {
			out[line[:i]] = v
		}
	}
	return out
}
