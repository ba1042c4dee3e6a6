package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net"
	"net/http"
	"runtime"
	"runtime/debug"
	"sort"
	"sync"
	"time"

	fragalign "repro"
	"repro/internal/encoding"
	"repro/internal/serve"
)

// serveRate is the offered load of serve-mixed in requests per second,
// about a sixth of the 456 requests/s two shards sustained saturated
// (README.md says why not half).
const serveRate = 80

// pauseEvery is how much of the plan passes between two pauses for the
// speed probe.
const pauseEvery = 100 * time.Millisecond

// clientConns bounds the load generator's HTTP connections.
const clientConns = 2

// maxPerRequest bounds the instances in one request. With the shipped queue
// bound (2 per shard) fair admission refuses a tenant's second concurrent
// request while its first holds four instances, so more would make the
// workload shed load it is meant to carry.
const maxPerRequest = 3

// reference is a fragalign.Solve of one serve-mixed instance's bytes: the
// score every served record of that instance must equal bit for bit.
type reference struct {
	score      float64
	ratio, acc float64
}

// references solves every distinct serve-mixed instance directly.
func references(in *inputs) ([]reference, error) {
	refs := make([]reference, len(in.items))
	for i, it := range in.items {
		x, err := decodeOne(it.line, encoding.NewSigmaInterner())
		if err != nil {
			return nil, err
		}
		res, err := fragalign.Solve(x, fragalign.CSRImprove, fragalign.WithFourApproxSeed(true))
		if err != nil {
			return nil, fmt.Errorf("reference solve %d: %w", i, err)
		}
		if err := checkResult(x, res); err != nil {
			return nil, err
		}
		refs[i].score = res.Score
		refs[i].ratio, refs[i].acc = quality(res, it.truth)
	}
	return refs, nil
}

// request is one planned serve-mixed request.
type request struct {
	due    time.Duration // offset of its scheduled send from the start
	tenant string        // "" sends no X-Tenant header
	items  []int         // indices into inputs.items
}

// plan draws Poisson arrivals at serveRate for the run's length. The count
// is fixed at rate × length; given their count, the arrival times of a
// Poisson process are independent and uniform over the run.
func plan(in *inputs, seed int64, seconds float64) []request {
	r := rand.New(rand.NewSource(seed ^ 0x5e1e))
	byTenant := map[string][]int{}
	for i, it := range in.items {
		byTenant[it.tenant] = append(byTenant[it.tenant], i)
	}
	out := make([]request, int(serveRate*seconds+0.5))
	due := make([]float64, len(out))
	for i := range due {
		due[i] = r.Float64() * seconds
	}
	sort.Float64s(due)
	for i := range out {
		req := &out[i]
		req.due = time.Duration(due[i] * float64(time.Second))
		if i%anonEvery != anonEvery-1 {
			req.tenant = tenantNames[r.Intn(len(tenantNames))]
		}
		pool := byTenant[req.tenant]
		for k := 1 + r.Intn(maxPerRequest); k > 0; k-- {
			req.items = append(req.items, pool[r.Intn(len(pool))])
		}
	}
	return out
}

// server is one in-process csrserve: a batch pool behind serve.Server on a
// loopback listener, and the client that drives it.
type server struct {
	pool   *fragalign.BatchPool
	http   *http.Server
	url    string
	client *http.Client
	served chan struct{}
	waits  *ticketTimes
}

func startServer(sp spec) (*server, error) {
	pool := newPool(sp)
	waits := &ticketTimes{}
	backend := timedPool{pool: pool, times: waits}
	srv, err := serve.New(serve.Options{Pool: backend, Algorithm: string(fragalign.CSRImprove), MaxTimeout: 5 * time.Minute})
	if err != nil {
		pool.Close()
		return nil, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		pool.Close()
		return nil, err
	}
	s := &server{
		pool:   pool,
		http:   &http.Server{Handler: srv},
		url:    "http://" + ln.Addr().String(),
		served: make(chan struct{}),
		waits:  waits,
		client: &http.Client{Transport: &http.Transport{
			MaxConnsPerHost:     clientConns,
			MaxIdleConnsPerHost: clientConns,
			DisableCompression:  true,
		}},
	}
	go func() {
		defer close(s.served)
		_ = s.http.Serve(ln) // ErrServerClosed once stop shuts it down
	}()
	return s, nil
}

// stop shuts the HTTP server down, waits for it, and closes the pool.
func (s *server) stop() {
	s.client.CloseIdleConnections()
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	_ = s.http.Shutdown(ctx) // fails only when ctx expires; Serve has returned either way
	<-s.served
	s.pool.Close()
}

// post sends one request body and reads the streamed records, returning the
// records and when the first record and the last byte arrived.
func (s *server) post(tenant string, body []byte) ([]encoding.ResultRecord, time.Time, time.Time, error) {
	req, err := http.NewRequest(http.MethodPost, s.url+"/v1/solve", bytes.NewReader(body))
	if err != nil {
		return nil, time.Time{}, time.Time{}, err
	}
	if tenant != "" {
		req.Header.Set("X-Tenant", tenant)
	}
	resp, err := s.client.Do(req)
	if err != nil {
		return nil, time.Time{}, time.Time{}, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		msg, _ := io.ReadAll(resp.Body)
		return nil, time.Time{}, time.Time{}, fmt.Errorf("HTTP %d: %s", resp.StatusCode, bytes.TrimSpace(msg))
	}
	var recs []encoding.ResultRecord
	var first time.Time
	br := bufio.NewReader(resp.Body)
	for {
		line, err := br.ReadBytes('\n')
		if len(bytes.TrimSpace(line)) > 0 {
			if first.IsZero() {
				first = time.Now()
			}
			var rec encoding.ResultRecord
			if jerr := json.Unmarshal(line, &rec); jerr != nil {
				return nil, first, time.Now(), jerr
			}
			recs = append(recs, rec)
		}
		if err == io.EOF {
			return recs, first, time.Now(), nil
		}
		if err != nil {
			return nil, first, time.Now(), err
		}
	}
}

// warm sends one warm-up request per named tenant, filling the tenants'
// interners and the pool's σ cache.
func (s *server) warm(in *inputs) error {
	for _, w := range in.warm {
		recs, _, _, err := s.post(w.tenant, w.line)
		if err != nil {
			return err
		}
		if len(recs) != 1 || recs[0].Error != "" {
			return fmt.Errorf("warm-up for %s: %+v", w.tenant, recs)
		}
	}
	return nil
}

func (s *server) metrics() (serve.Metrics, error) {
	var m serve.Metrics
	resp, err := s.client.Get(s.url + "/metrics")
	if err != nil {
		return m, err
	}
	defer resp.Body.Close()
	return m, json.NewDecoder(resp.Body).Decode(&m)
}

// runOpen is serve-mixed: Poisson arrivals sent from clientConns
// connections, each request timed from when it was due. The speed probe
// runs in pauses of the plan with no request in flight.
func runOpen(sp spec, in *inputs, seed int64, seconds float64, tr *tracer, pr *prober) (*runOut, error) {
	refs, err := references(in)
	if err != nil {
		return nil, err
	}
	reqs := plan(in, seed, seconds)
	out := &runOut{}
	var s *server
	for r := 0; r < sp.reps; r++ {
		if s != nil {
			s.stop()
			s = nil
		}
		debug.FreeOSMemory() // as in runClosed
		t0 := time.Now()
		ns, err := startServer(sp)
		if err == nil {
			if err = ns.warm(in); err != nil {
				ns.stop()
			}
		}
		if err != nil {
			return nil, err
		}
		out.setup = append(out.setup, time.Since(t0).Seconds())
		s = ns
		pr.probe()
	}
	defer s.stop()
	runtime.GC()

	type sent struct {
		i                int
		recs             []encoding.ResultRecord
		err              error
		send, first, end time.Time
		scheduled        time.Time
	}
	type dueReq struct {
		i         int
		scheduled time.Time
	}
	// Every planned request may be due before any completes; sizing both
	// channels to the plan keeps the scheduler and the workers from ever
	// blocking on each other.
	due := make(chan dueReq, len(reqs))
	results := make(chan sent, len(reqs))
	heap := startHeapSampler()
	c0 := s.pool.Counters()
	cpu0 := cpuTime()
	start := time.Now()
	var wg, inflight sync.WaitGroup
	for w := 0; w < clientConns; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var body []byte
			for d := range due {
				body = body[:0]
				for _, k := range reqs[d.i].items {
					body = append(body, in.items[k].line...)
				}
				send := time.Now()
				recs, first, end, err := s.post(reqs[d.i].tenant, body)
				results <- sent{i: d.i, recs: recs, err: err, send: send, first: first, end: end, scheduled: d.scheduled}
				inflight.Done()
			}
		}()
	}
	// Every pauseEvery of the plan the generator stops sending, waits for
	// the requests in flight, and runs the speed probe; the plan then
	// resumes where it stopped, shifted by the pause.
	pr.phase = 0
	var shift, probing time.Duration
	mark := pauseEvery
	for i := range reqs {
		for reqs[i].due >= mark {
			if d := time.Until(start.Add(shift + mark)); d > 0 {
				time.Sleep(d)
			}
			inflight.Wait()
			p0 := time.Now()
			if d := pr.keepShare(p0.Sub(start) - shift); d > 0 {
				probing += d
				tr.record("speed.probe", 0, i, p0, time.Now())
			}
			shift = time.Since(start) - mark
			mark += pauseEvery
		}
		at := start.Add(shift + reqs[i].due)
		if d := time.Until(at); d > 0 {
			time.Sleep(d)
		}
		inflight.Add(1)
		due <- dueReq{i: i, scheduled: at}
	}
	close(due)
	wg.Wait()
	close(results)
	out.cpu = cpuTime() - cpu0 - probing // the probe is single-threaded
	out.peakMB, out.gcs = heap.finish()
	var last time.Time
	for r := range results {
		req := reqs[r.i]
		scheduled := r.scheduled
		out.attempted += len(req.items)
		if r.end.After(last) {
			last = r.end
		}
		out.lags = append(out.lags, ms(r.send.Sub(scheduled)))
		tr.record("serve.request", 0, r.i, r.send, r.end)
		if r.err == nil && len(r.recs) != len(req.items) {
			r.err = fmt.Errorf("request %d: %d records for %d instances", r.i, len(r.recs), len(req.items))
		}
		if r.err != nil {
			for range req.items {
				out.fail(r.err)
			}
			continue
		}
		out.lats = append(out.lats, ms(r.end.Sub(scheduled)))
		out.ttfrs = append(out.ttfrs, ms(r.first.Sub(scheduled)))
		for j, rec := range r.recs {
			ref := refs[req.items[j]]
			switch {
			case rec.Error != "" || rec.Partial:
				out.fail(fmt.Errorf("request %d record %d: error %q partial %v", r.i, j, rec.Error, rec.Partial))
			case rec.Index != j || rec.Score != ref.score:
				out.fail(fmt.Errorf("request %d record %d: index %d score %v, direct solve scored %v",
					r.i, j, rec.Index, rec.Score, ref.score))
			default:
				out.completed++
				out.walls = append(out.walls, rec.WallMS)
			}
		}
		if len(r.recs) == 1 {
			out.overheads = append(out.overheads, ms(r.end.Sub(r.send))-r.recs[0].WallMS)
		}
	}
	out.elapsed = last.Sub(start) - shift
	out.counters = s.pool.Counters()
	out.busyShare = busyShare(c0, out.counters, out.elapsed)
	out.queueWaits = s.waits.values()

	// Quality of the served results: every record matched its direct
	// solve's score, so the direct solves' layouts stand for them.
	out.q = newQualityTable(len(refs))
	for i := range refs {
		out.q.ratio[i], out.q.acc[i], out.q.set[i] = refs[i].ratio, refs[i].acc, true
	}
	m, err := s.metrics()
	if err != nil {
		return nil, err
	}
	out.bytesStreamed = float64(m.Server.BytesStreamed)
	var hits, misses int64
	for _, t := range m.TenantsDetail {
		hits += t.SigmaHits
		misses += t.SigmaMisses
	}
	if hits+misses > 0 {
		out.tenantHitRatio = float64(hits) / float64(hits+misses)
	}
	return out, nil
}

// ticketTimes collects batch queue waits seen through timedPool.
type ticketTimes struct {
	mu sync.Mutex
	ms []float64
}

func (t *ticketTimes) add(v float64) {
	t.mu.Lock()
	t.ms = append(t.ms, v)
	t.mu.Unlock()
}

func (t *ticketTimes) values() []float64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]float64(nil), t.ms...)
}

// timedPool is the serve.Pool of every serve-mixed run, traced or not: the
// batch pool's tickets with their completion time stamped the moment they
// resolve, so the queue wait (ticket latency minus Result.Wall) excludes the
// server waiting on earlier records of the same request. It adds one
// goroutine per ticket to what serve.AdaptBatchPool does.
type timedPool struct {
	pool  *fragalign.BatchPool
	times *ticketTimes
}

type timedTicket struct {
	t       *fragalign.BatchTicket
	stamped chan struct{}
	at      time.Time
	latency time.Duration
	times   *ticketTimes
}

func (p timedPool) wrap(at time.Time, t *fragalign.BatchTicket, err error) (serve.Ticket, error) {
	if err != nil {
		return nil, err
	}
	tt := &timedTicket{t: t, stamped: make(chan struct{}), at: at, times: p.times}
	go func() {
		<-t.Done()
		tt.latency = time.Since(tt.at)
		close(tt.stamped)
	}()
	return tt, nil
}

func (p timedPool) Submit(ctx context.Context, in *fragalign.Instance) (serve.Ticket, error) {
	at := time.Now()
	t, err := p.pool.Submit(ctx, in)
	return p.wrap(at, t, err)
}

func (p timedPool) TrySubmit(ctx context.Context, in *fragalign.Instance) (serve.Ticket, error) {
	at := time.Now()
	t, err := p.pool.TrySubmit(ctx, in)
	return p.wrap(at, t, err)
}

func (p timedPool) Counters() fragalign.BatchCounters { return p.pool.Counters() }
func (p timedPool) Shards() int                       { return p.pool.Shards() }

func (t *timedTicket) Wait() (*fragalign.Result, error) {
	<-t.stamped
	res, err := t.t.Wait()
	if err == nil {
		t.times.add(ms(t.latency - res.Wall))
	}
	return res, err
}
