package main

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"fmt"
	"log"
	"math"
	"runtime"
	"sync"
	"syscall"
	"time"

	"backfi/internal/adapt"
	"backfi/internal/core"
	"backfi/internal/fault"
	"backfi/internal/fec"
	"backfi/internal/obs"
	"backfi/internal/serve"
	"backfi/internal/tag"
)

// serveSpec is one serve workload. Session 0 always decodes; session 1
// decodes too, or sends mdecode slots of mdecodeTags payloads.
type serveSpec struct {
	name    string
	proto   string
	cache   bool
	fastTag bool
	faulted bool // timeline + adaptation + handoff on the daemon
	multi   bool // session 1 sends mdecode slots
	payload int
	// retries is the daemon's per-frame ARQ budget.
	retries int
	// openRate is each session's open-loop rate in ops/s; closedPerSec
	// is each session's closed-loop batch per second of --seconds.
	openRate     [2]float64
	closedPerSec [2]int
}

const (
	openShare     = 0.8 // share of --seconds spent in the open loop
	setupReps     = 11
	mdecodeTags   = 2
	faultTimeline = "0:0,5:0.1"
	minSymRate    = 5e5
	daemonRho     = 0.95
	daemonShards  = 4
	// sessionsPerConn sessions share each connection round-robin, so a
	// run averages over that many placements and adaptation histories
	// instead of resting on one session's channel draw.
	sessionsPerConn = 8
	closedRounds    = 5
)

var hotSpec = serveSpec{
	name: "serve_hot", proto: "binary", cache: true, fastTag: true, payload: 128, retries: 2,
	openRate: [2]float64{30, 30}, closedPerSec: [2]int{50, 50},
}

var faultedSpec = serveSpec{
	name: "serve_faulted", proto: "json", faulted: true, multi: true, payload: 24, retries: 1,
	openRate: [2]float64{14, 17}, closedPerSec: [2]int{20, 24},
}

// link is the daemon's session template: the program's defaults at
// 1 m, with the fast tag on serve_hot.
func (s serveSpec) link() core.LinkConfig {
	link := core.DefaultLinkConfig(1)
	if s.fastTag {
		link.Tag = tag.Config{Mod: tag.PSK16, Coding: fec.Rate23, SymbolRateHz: 2.5e6,
			PreambleChips: tag.DefaultPreambleChips, ID: link.Tag.ID}
	}
	return link
}

func (s serveSpec) config(reg *obs.Registry, tr *obs.Tracer) (serve.Config, error) {
	cfg := serve.Config{
		Addr:         "127.0.0.1:0",
		Link:         s.link(),
		CoherenceRho: daemonRho,
		MaxRetries:   s.retries,
		Shards:       daemonShards,
		SessionCache: s.cache,
		Obs:          reg,
		Tracer:       tr,
	}
	if s.faulted {
		tl, err := fault.ParseTimeline(faultTimeline)
		if err != nil {
			return cfg, err
		}
		cfg.Timeline = tl
		cfg.Adapt = true
		cfg.AdaptMinSymbolRateHz = minSymRate
		cfg.Handoff = true
	}
	return cfg, nil
}

// isMulti reports whether the sessions of connection k send mdecode
// slots.
func (s serveSpec) isMulti(k int) bool { return s.multi && k == 1 }

// tagsPerOp is how many tag frames one op of session k offers.
func (s serveSpec) tagsPerOp(k int) int {
	if s.isMulti(k) {
		return mdecodeTags
	}
	return 1
}

// stream is one session's ops, with everything measured about them.
// k is the connection that drives it; its first openN ops belong to
// the open loop, the rest to the closed loop.
type stream struct {
	id                                  string
	k                                   int
	ops                                 [][][]byte // per op: its payloads
	openN                               int
	lines                               []string // canonical response lines, for the digest
	rtt                                 []float64
	start                               []int64         // unix ns each op was sent
	lat                                 []float64       // open loop: ms from due time
	dueAt                               []time.Duration // open loop: each op's due offset
	late                                []float64       // open loop: ms the send started after due
	delivered, offered, failed, refused int
	closedDelivered                     int
	seqErr                              string
}

// newStream makes session j of connection k with nOpen open-loop and
// nClosed closed-loop ops. Connection k's sessions sit on shards 2k and
// 2k+1, so the two connections never queue behind each other.
func (s serveSpec) newStream(g gen, phase string, k, j, nOpen, nClosed int) *stream {
	id := g.sessionID(phase, k*sessionsPerConn+j, 2*k+j%2, daemonShards)
	per := s.tagsPerOp(k)
	n := nOpen + nClosed
	flat := g.payloads(id, n*per, s.payload)
	st := &stream{id: id, k: k, ops: make([][][]byte, n), openN: nOpen}
	for i := range st.ops {
		st.ops[i] = flat[i*per : (i+1)*per]
	}
	return st
}

// respLine is the canonical text of one OK response: everything the
// daemon's determinism contract pins, with SNRs as exact bit patterns.
func respLine(seq int, delivered, payloadOK bool, attempts, noWakes, acks int, snr float64, tags []serve.TagResult) string {
	line := fmt.Sprintf("%d %t %t %d %d %d %x", seq, delivered, payloadOK, attempts, noWakes, acks, math.Float64bits(snr))
	for _, t := range tags {
		line += fmt.Sprintf(" [%t %t %t %x]", t.Woke, t.Delivered, t.PayloadOK, math.Float64bits(t.SNRdB))
	}
	return line
}

func digest(lines []string) string {
	h := sha256.New()
	for _, l := range lines {
		h.Write([]byte(l))
		h.Write([]byte{'\n'})
	}
	return hex.EncodeToString(h.Sum(nil))[:16]
}

// call sends op i of a stream and records its outcome. It returns the
// round-trip time.
func (s serveSpec) call(c *serve.Client, st *stream, i int) time.Duration {
	pays := st.ops[i]
	t0 := time.Now()
	var resp *serve.Response
	var err error
	if s.isMulti(st.k) {
		resp, err = c.MultiDecode(st.id, pays)
	} else {
		resp, err = c.Decode(st.id, pays[0])
	}
	rtt := time.Since(t0)
	st.start = append(st.start, t0.UnixNano())
	st.offered += len(pays)
	st.rtt = append(st.rtt, ms(rtt))
	switch {
	case errors.Is(err, serve.ErrQueueFull) || errors.Is(err, serve.ErrDeadline) || errors.Is(err, serve.ErrDraining):
		st.refused++
		st.failed++
		st.lines = append(st.lines, "refused")
		return rtt
	case err != nil:
		st.failed++
		st.lines = append(st.lines, "error")
		return rtt
	}
	if resp.Seq != len(st.lines)+1 && st.seqErr == "" {
		st.seqErr = fmt.Sprintf("session %s op %d: Seq %d, want %d", st.id, i, resp.Seq, len(st.lines)+1)
	}
	got := 0
	if s.isMulti(st.k) {
		for _, t := range resp.Tags {
			if t.Delivered {
				got++
			}
		}
	} else if resp.Delivered {
		got = 1
	}
	st.delivered += got
	if i >= st.openN {
		st.closedDelivered += got
	}
	st.lines = append(st.lines, respLine(resp.Seq, resp.Delivered, resp.PayloadOK, resp.Attempts,
		resp.NoWakes, resp.ACKsDropped, resp.SNRdB, resp.Tags))
	return rtt
}

func ms(d time.Duration) float64 { return float64(d) / 1e6 }

// pass is one complete measurement: set-ups, open loop, closed loop.
type pass struct {
	setupS      []float64
	setupDigest []string
	sessions    [2][]*stream // per connection
	openDur     time.Duration
	roundWall   []float64 // closed-loop rounds: wall clock
	roundKbps   []float64 // closed-loop rounds: delivered payload kbit/s
	heapMB      float64
	gcCycles    uint32
	gcPauses    []float64
	cpuMS       float64
	stats       map[string]*serve.SessionStats // by session id
}

func (p *pass) closedDelivered() int {
	n := 0
	for _, st := range p.streams() {
		n += st.closedDelivered
	}
	return n
}

func (p *pass) streams() []*stream {
	return append(append([]*stream(nil), p.sessions[0]...), p.sessions[1]...)
}

// connSessions spreads a connection's nOpen open-loop and nClosed
// closed-loop ops over its sessions: op i of a phase goes to session
// i mod sessionsPerConn.
func (s serveSpec) connSessions(g gen, k, nOpen, nClosed int) []*stream {
	share := func(n, j int) int { return (n - j + sessionsPerConn - 1) / sessionsPerConn }
	sts := make([]*stream, sessionsPerConn)
	for j := range sts {
		sts[j] = s.newStream(g, "run", k, j, share(nOpen, j), share(nClosed, j))
	}
	return sts
}

// closedOps counts a connection's closed-loop ops.
func closedOps(sts []*stream) int {
	n := 0
	for _, st := range sts {
		n += len(st.ops) - st.openN
	}
	return n
}

// drive sends ops [lo, hi) of one phase of a connection, round-robin
// over its sessions. With due times it is the open loop: each op waits
// for its due time, never for the previous op's lateness.
func (s serveSpec) drive(c *serve.Client, sts []*stream, lo, hi int, start time.Time, due []time.Duration) {
	for i := lo; i < hi; i++ {
		st, j := sts[i%len(sts)], i/len(sts)
		if due == nil {
			s.call(c, st, st.openN+j)
			continue
		}
		at := start.Add(due[i])
		if w := time.Until(at); w > 0 {
			time.Sleep(w)
		}
		sent := time.Now()
		s.call(c, st, j)
		st.lat = append(st.lat, ms(time.Since(at)))
		st.dueAt = append(st.dueAt, due[i])
		st.late = append(st.late, ms(sent.Sub(at)))
	}
}

// cpuTime is this process's user+system CPU time.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// setup starts a daemon, dials one client per session and sends each
// session's first frame (which builds the session and, with the cache
// on, its excitation). It returns the elapsed time and the first
// responses' lines.
func (s serveSpec) setup(g gen, reg *obs.Registry, tr *obs.Tracer) (*serve.Server, [2]*serve.Client, float64, []string, error) {
	var clients [2]*serve.Client
	cfg, err := s.config(reg, tr)
	if err != nil {
		return nil, clients, 0, nil, err
	}
	t0 := time.Now()
	srv, err := serve.NewServer(cfg)
	if err != nil {
		return nil, clients, 0, nil, err
	}
	if err := srv.Start(); err != nil {
		return nil, clients, 0, nil, err
	}
	fail := func(err error) (*serve.Server, [2]*serve.Client, float64, []string, error) {
		for _, c := range clients {
			if c != nil {
				c.Close()
			}
		}
		srv.Shutdown(context.Background())
		return nil, [2]*serve.Client{}, 0, nil, err
	}
	var lines []string
	for k := range clients {
		c, err := serve.DialClient(serve.ClientConfig{Addr: srv.Addr(), Proto: s.proto, Tracer: tr})
		if err != nil {
			return fail(err)
		}
		clients[k] = c
		st := s.newStream(g, "setup", k, 0, 1, 0)
		s.call(c, st, 0)
		if st.failed > 0 {
			return fail(fmt.Errorf("%s: first frame of session %s failed", s.name, st.id))
		}
		lines = append(lines, st.lines...)
	}
	return srv, clients, time.Since(t0).Seconds(), lines, nil
}

// measure runs one pass. reg and tr may be nil (untraced).
func (s serveSpec) measure(g gen, seconds int, reg *obs.Registry, tr *obs.Tracer) (*pass, error) {
	p := &pass{}
	var srv *serve.Server
	var clients [2]*serve.Client
	for r := 0; r < setupReps; r++ {
		sv, cs, secs, lines, err := s.setup(g, reg, tr)
		if err != nil {
			return nil, err
		}
		p.setupS = append(p.setupS, secs)
		p.setupDigest = append(p.setupDigest, digest(lines))
		if r < setupReps-1 {
			for _, c := range cs {
				c.Close()
			}
			sv.Shutdown(context.Background())
			continue
		}
		srv, clients = sv, cs
	}
	defer func() {
		for _, c := range clients {
			c.Close()
		}
		srv.Shutdown(context.Background())
	}()

	openDur := openShare * float64(seconds)
	p.openDur = time.Duration(openDur * float64(time.Second))
	var due [2][]time.Duration
	for k := range p.sessions {
		n := int(s.openRate[k] * openDur)
		p.sessions[k] = s.connSessions(g, k, n, s.closedPerSec[k]*seconds)
		due[k] = g.schedule(fmt.Sprintf("open-%d", k), s.openRate[k], n)
	}

	var ms0, ms1 runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&ms0)
	cpu0 := cpuTime()

	// Open loop, then closed loop: both connections at once.
	start := time.Now().Add(20 * time.Millisecond)
	var wg sync.WaitGroup
	for k := range p.sessions {
		wg.Add(1)
		go func(k int) {
			defer wg.Done()
			s.drive(clients[k], p.sessions[k], 0, len(due[k]), start, due[k])
		}(k)
	}
	wg.Wait()
	// Closed loop in rounds, each a slice of both connections' batches;
	// goodput is the median round's, so a burst of outside load in one
	// round does not set the run's figure.
	for r := 0; r < closedRounds; r++ {
		t0 := time.Now()
		before := p.closedDelivered()
		for k := range p.sessions {
			wg.Add(1)
			go func(k int) {
				defer wg.Done()
				n := closedOps(p.sessions[k])
				s.drive(clients[k], p.sessions[k], r*n/closedRounds, (r+1)*n/closedRounds, t0, nil)
			}(k)
		}
		wg.Wait()
		wall := time.Since(t0).Seconds()
		p.roundWall = append(p.roundWall, wall)
		p.roundKbps = append(p.roundKbps, float64((p.closedDelivered()-before)*s.payload*8)/wall/1e3)
	}
	log.Printf("%s: open loop %.1fs, closed-loop rounds %.2v s", s.name, openDur, p.roundWall)
	p.cpuMS = ms(cpuTime() - cpu0)

	runtime.GC()
	runtime.ReadMemStats(&ms1)
	p.heapMB = float64(ms1.HeapAlloc) / 1e6
	p.gcCycles = ms1.NumGC - ms0.NumGC
	p.gcPauses = pauses(&ms1, ms0.NumGC+1)
	if err := s.sessionStats(p, clients); err != nil {
		return nil, err
	}
	return p, nil
}

// pauses returns the GC pauses of cycles from first on that the
// runtime's 256-entry ring still holds.
func pauses(m *runtime.MemStats, first uint32) []float64 {
	if m.NumGC > 256 && m.NumGC-255 > first {
		first = m.NumGC - 255
	}
	var out []float64
	for c := first; c <= m.NumGC; c++ {
		out = append(out, float64(m.PauseNs[(c+255)%256])/1e6)
	}
	return out
}

// sessionStats reads the daemon's stats for every measured session.
func (s serveSpec) sessionStats(p *pass, clients [2]*serve.Client) error {
	p.stats = map[string]*serve.SessionStats{}
	for _, st := range p.streams() {
		ss, err := clients[st.k].Stats(st.id)
		if err != nil {
			return fmt.Errorf("stats %s: %w", st.id, err)
		}
		p.stats[st.id] = ss
	}
	return nil
}

// replica is an independent core session built the way the daemon
// builds session id's: the daemon's template with seed Link.Seed +
// FNV-1a64(id), adaptive and timeline-driven where the daemon is.
type replica struct {
	sess  *core.Session
	multi *core.MultiTagSession
	tl    *fault.Timeline
	cur   int
}

func (s serveSpec) newReplica(id string, k int, reg *obs.Registry) (*replica, error) {
	cfg := s.link()
	cfg.Seed += int64(hashString(id))
	r := &replica{}
	var err error
	switch {
	case s.isMulti(k):
		r.multi, err = core.NewMultiTagSession(core.MultiTagSessionConfig{
			Link: cfg, Tags: mdecodeTags, Pool: core.NewSlotPool(s.link().Seed),
		})
	case s.faulted:
		cfg.Obs = reg
		cfg.Migratable = true
		r.tl, err = fault.ParseTimeline(faultTimeline)
		if err == nil {
			r.sess, err = core.NewAdaptiveSession(cfg, daemonRho, s.retries, adapt.Config{}, minSymRate)
		}
	default:
		cfg.Obs = reg
		cfg.SessionCache = s.cache
		r.sess, err = core.NewSession(cfg, daemonRho, s.retries)
	}
	return r, err
}

// send replays op i and returns its canonical line, the delivered tag
// frames, and the time the core call took.
func (r *replica) send(seq int, pays [][]byte) (string, *core.PacketResult, time.Duration, error) {
	if r.multi != nil {
		t0 := time.Now()
		res, err := r.multi.SendSlot(pays)
		d := time.Since(t0)
		if err != nil {
			return "", nil, d, err
		}
		tags := make([]serve.TagResult, len(res.Results))
		for k, pr := range res.Results {
			tags[k].Woke = res.Woke[k]
			if pr != nil {
				tags[k].Delivered, tags[k].PayloadOK, tags[k].SNRdB = pr.Delivered, pr.PayloadOK, pr.MeasuredSNRdB
			}
		}
		return respLine(seq, res.Delivered == len(pays), false, 1, 0, 0, 0, tags), nil, d, nil
	}
	if cur, p, switched := r.tl.Advance(r.cur, r.sess.Stats.FramesOffered); switched {
		r.cur = cur
		if err := r.sess.SetFaultProfile(p); err != nil {
			return "", nil, 0, err
		}
	}
	before := r.sess.Stats
	t0 := time.Now()
	res, delivered, err := r.sess.Send(pays[0])
	d := time.Since(t0)
	if err != nil {
		return "", nil, d, err
	}
	after := r.sess.Stats
	var payloadOK bool
	var snr float64
	if res != nil {
		payloadOK, snr = res.PayloadOK, res.MeasuredSNRdB
	}
	return respLine(seq, delivered, payloadOK, after.PacketsSent-before.PacketsSent,
		after.NoWakes-before.NoWakes, after.ACKsDropped-before.ACKsDropped, snr, nil), res, d, nil
}

// replay is one stream's replica run.
type replay struct {
	lines        []string
	sendMS       []float64 // per op, core call time
	sendStart    []int64   // per op, unix ns the core call began
	allocBytes   []float64 // per op (traced replay only)
	allocs       []float64
	falseAccepts int
	frameOK      int
	decodes      int
}

// replayStream reruns a stream on a replica. With memStats it also
// reads the allocation counters around every call, which is only
// meaningful when nothing else runs.
func (s serveSpec) replayStream(st *stream, memStats bool, reg *obs.Registry) (*replay, error) {
	r, err := s.newReplica(st.id, st.k, reg)
	if err != nil {
		return nil, err
	}
	out := &replay{}
	var m0, m1 runtime.MemStats
	for i, pays := range st.ops {
		if memStats {
			runtime.ReadMemStats(&m0)
		}
		t0 := time.Now()
		line, pr, d, err := r.send(i+1, pays)
		if memStats {
			runtime.ReadMemStats(&m1)
			out.allocBytes = append(out.allocBytes, float64(m1.TotalAlloc-m0.TotalAlloc))
			out.allocs = append(out.allocs, float64(m1.Mallocs-m0.Mallocs))
		}
		if err != nil {
			return nil, fmt.Errorf("replica %s op %d: %w", st.id, i, err)
		}
		out.lines = append(out.lines, line)
		out.sendMS = append(out.sendMS, ms(d))
		out.sendStart = append(out.sendStart, t0.UnixNano())
		if pr != nil && pr.Decode != nil {
			out.decodes++
			if pr.Decode.FrameOK {
				out.frameOK++
				if string(pr.Decode.Payload) != string(pays[0]) {
					out.falseAccepts++
				}
			}
		}
	}
	return out, nil
}

// replayAll replays every stream, on two goroutines unless memStats
// asks for a quiet process. reg, if set, receives the single-tag
// replica links' metrics.
func (s serveSpec) replayAll(sts []*stream, memStats bool, reg *obs.Registry) ([]*replay, error) {
	out := make([]*replay, len(sts))
	errs := make([]error, len(sts))
	workers := 2
	if memStats {
		workers = 1
	}
	next := make(chan int, len(sts))
	for i := range sts {
		next <- i
	}
	close(next)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range next {
				out[i], errs[i] = s.replayStream(sts[i], memStats, reg)
			}
		}()
	}
	wg.Wait()
	return out, errors.Join(errs...)
}

// check applies the correctness rules to one pass and its replays.
func (s serveSpec) check(o *outcome, p *pass, reps []*replay) {
	for i := 1; i < len(p.setupDigest); i++ {
		if p.setupDigest[i] != p.setupDigest[0] {
			o.violate("set-up %d first-frame digest %s differs from set-up 0's %s at one seed", i, p.setupDigest[i], p.setupDigest[0])
		}
	}
	for _, st := range p.streams() {
		if st.seqErr != "" {
			o.violate("%s", st.seqErr)
		}
		ss := p.stats[st.id]
		if ss.FramesOffered != st.offered || ss.FramesDelivered != st.delivered {
			o.violate("session %s: Stats offered/delivered %d/%d, client tally %d/%d",
				st.id, ss.FramesOffered, ss.FramesDelivered, st.offered, st.delivered)
		}
	}
	for i, st := range p.streams() {
		if got, want := digest(st.lines), digest(reps[i].lines); got != want {
			o.violate("session %s: response digest %s, replica digest %s", st.id, got, want)
		}
	}
}

// runServe runs a serve workload.
func runServe(s serveSpec, g gen, cfg runConfig) (*outcome, error) {
	o := newOutcome()
	plain, err := s.measure(g, cfg.seconds, nil, nil)
	if err != nil {
		return nil, err
	}
	if !cfg.traced {
		reps, err := s.replayAll(plain.streams(), false, nil)
		if err != nil {
			return nil, err
		}
		s.check(o, plain, reps)
		if err := s.endToEnd(o, plain); err != nil {
			return nil, err
		}
		return o, nil
	}

	reg := obs.NewRegistry()
	tr := obs.NewTracer(obs.TracerConfig{Seed: s.link().Seed, SampleEvery: 1, Capacity: 1 << 18})
	traced, err := s.measure(g, cfg.seconds, reg, tr)
	if err != nil {
		return nil, err
	}
	repReg := obs.NewRegistry()
	reps, err := s.replayAll(traced.streams(), true, repReg)
	if err != nil {
		return nil, err
	}
	s.check(o, traced, reps)
	for i, st := range traced.streams() {
		if a, b := digest(st.lines), digest(plain.streams()[i].lines); a != b {
			o.violate("session %s: traced digest %s differs from untraced %s", st.id, a, b)
		}
	}
	// End-to-end numbers of both passes give the tracing overhead.
	e2ePlain, e2eTraced := newOutcome(), newOutcome()
	if err := s.endToEnd(e2ePlain, plain); err != nil {
		return nil, err
	}
	if err := s.endToEnd(e2eTraced, traced); err != nil {
		return nil, err
	}
	o.res.Attempted, o.res.Failed = e2eTraced.res.Attempted, e2eTraced.res.Failed
	o.report["untraced"] = e2ePlain.res.Metrics
	o.report["traced_end_to_end"] = e2eTraced.res.Metrics
	o.set("trace.overhead.lat_p50_ms", "ms", e2eTraced.res.Metrics["lat_p50_ms"].Value-e2ePlain.res.Metrics["lat_p50_ms"].Value)
	o.set("trace.overhead.goodput_kbps", "kbps", e2eTraced.res.Metrics["goodput_kbps"].Value-e2ePlain.res.Metrics["goodput_kbps"].Value)
	s.serveLayers(o, traced, reps, reg, repReg, tr)
	return o, layerMetrics(o, s.layerCase(g))
}

// endToEnd fills the end-to-end metrics of one pass.
func (s serveSpec) endToEnd(o *outcome, p *pass) error {
	var late []float64
	windows := make([][]float64, latWindows)
	var nOpen, nClosed int
	for _, st := range p.streams() {
		for j, l := range st.lat {
			w := min(latWindows-1, int(int64(st.dueAt[j])*latWindows/int64(p.openDur)))
			windows[w] = append(windows[w], l)
		}
		late = append(late, st.late...)
		nOpen += st.openN
		nClosed += len(st.ops) - st.openN
	}
	lat, err := summarize(windows)
	if err != nil {
		return fmt.Errorf("%s: %w", s.name, err)
	}
	var delivered, offered, attempted, failed, refused int
	for _, st := range p.streams() {
		delivered += st.delivered
		offered += st.offered
		attempted += len(st.ops)
		failed += st.failed
		refused += st.refused
	}
	o.res.Attempted, o.res.Failed = attempted, failed
	o.set("setup_s", "s", median(p.setupS))
	o.set("lat_p50_ms", "ms", lat.P50)
	o.set("goodput_kbps", "kbps", median(p.roundKbps))
	o.set("delivered_frac", "1", float64(delivered)/float64(offered))
	o.set("heap_live_mb", "MB", p.heapMB)
	o.set("wall_s", "s", median(p.roundWall)*closedRounds)
	lateS := sorted(late)
	o.report["samples"] = map[string]any{
		"lat": lat, "lat_percentiles": fmt.Sprintf("nearest rank, per window of %d by due time, median window", latWindows),
		"setup_reps": len(p.setupS), "setup_s_all": p.setupS,
		"closed_ops": nClosed, "open_ops": nOpen, "sessions_per_connection": sessionsPerConn,
		"closed_round_s": p.roundWall, "closed_round_kbps": p.roundKbps,
	}
	o.report["loadgen_late_ms"] = map[string]float64{"p50": quantile(lateS, 0.5), "max": quantile(lateS, 1)}
	o.report["refused"] = refused
	digests := map[string]string{}
	for _, st := range p.streams() {
		digests[st.id] = digest(st.lines)
	}
	o.report["digests"] = digests
	o.report["setup_digest"] = p.setupDigest[0]
	return nil
}

// serveLayers fills the serve, core and process per-layer metrics from
// the traced pass, its replays, the registry and the tracer.
func (s serveSpec) serveLayers(o *outcome, p *pass, reps []*replay, reg, repReg *obs.Registry, tr *obs.Tracer) {
	sts := p.streams()
	var self, send, slot, allocB, allocN, late []float64
	falseAcc, frameOK, decodes, ops := 0, 0, 0, 0
	for i, st := range sts {
		rp := reps[i]
		for j := range st.rtt {
			self = append(self, st.rtt[j]-rp.sendMS[j])
			frame := hashString(fmt.Sprintf("%s/%d", st.id, j))
			o.spans = append(o.spans,
				span{Name: "serve.round_trip", Frame: frame, Parent: -1, Start: st.start[j], End: st.start[j] + int64(st.rtt[j]*1e6)},
				span{Name: "core.replica_send", Frame: frame, Parent: -1, Start: rp.sendStart[j], End: rp.sendStart[j] + int64(rp.sendMS[j]*1e6)})
		}
		if s.isMulti(st.k) {
			slot = append(slot, rp.sendMS...)
		} else {
			send = append(send, rp.sendMS...)
			allocB = append(allocB, rp.allocBytes...)
			allocN = append(allocN, rp.allocs...)
		}
		late = append(late, st.late...)
		falseAcc += rp.falseAccepts
		frameOK += rp.frameOK
		decodes += rp.decodes
		ops += len(st.ops)
	}
	o.report["replica_frame_ok"] = map[string]int{"frame_ok": frameOK, "decodes": decodes, "crc_false_accept": falseAcc}
	setTail := func(name string, v []float64) {
		vs := sorted(v)
		q, err := p99(vs)
		if err != nil {
			o.note(name, fmt.Sprintf("0: %v", err))
			q = 0
		}
		o.set(name, "ms", q)
	}
	selfS := sorted(self)
	o.set("serve.self_ms.p50", "ms", quantile(selfS, 0.5))
	setTail("serve.self_ms.p99", self)
	o.set("core.send_ms.p50", "ms", median(send))
	setTail("core.send_ms.p99", send)
	if len(slot) > 0 {
		o.set("core.slot_ms.p50", "ms", median(slot))
	} else {
		o.set("core.slot_ms.p50", "ms", 0)
		o.note("core.slot_ms.p50", "0: this workload sends no mdecode slots")
	}
	o.set("core.alloc_kb_per_frame", "KB", median(allocB)/1e3)
	o.set("core.allocs_per_frame", "count", median(allocN))
	o.note("core.alloc_kb_per_frame", "median over single-tag replica Send calls of the TotalAlloc delta")
	setTail("loadgen.late_p99_ms", late)
	o.falseAccepts += falseAcc

	var sent, offered int
	for _, st := range sts {
		if !s.isMulti(st.k) {
			sent += p.stats[st.id].PacketsSent
			offered += p.stats[st.id].FramesOffered
		}
	}
	o.set("core.attempts_per_frame", "count", float64(sent)/float64(offered))
	o.note("core.attempts_per_frame", "Client.Stats PacketsSent / FramesOffered over the single-tag decode sessions")

	snap := reg.Snapshot()
	if h, ok := snap.Histogram(obs.MetricServeJobStage, `{stage="queue_wait"}`); ok {
		o.set("serve.queue_wait_ms.p99", "ms", h.Quantile(0.99)*1e3)
		o.note("serve.queue_wait_ms.p99", fmt.Sprintf("registry histogram, %d samples, bucket-interpolated", h.Count))
	} else {
		o.set("serve.queue_wait_ms.p99", "ms", 0)
		o.note("serve.queue_wait_ms.p99", "0: no queue_wait histogram in the registry")
	}
	for _, proto := range []string{"binary", "json"} {
		name := "serve.codec_us." + proto
		dec, okD := snap.Histogram(obs.MetricServeFrameCodec, fmt.Sprintf(`{op="decode",proto=%q}`, proto))
		enc, okE := snap.Histogram(obs.MetricServeFrameCodec, fmt.Sprintf(`{op="encode",proto=%q}`, proto))
		if !okD || !okE || dec.Count == 0 {
			o.set(name, "us", 0)
			o.note(name, "0: this workload does not speak "+proto)
			continue
		}
		o.set(name, "us", (dec.Sum+enc.Sum)/float64(dec.Count)*1e6)
	}
	var wire int64
	for _, c := range snap.Counters {
		if c.Name == obs.MetricServeWireBytes {
			wire += c.Value
		}
	}
	o.set("serve.wire_bytes_per_frame", "B", float64(wire)/float64(ops))
	o.set("serve.refused.queue_full", "count", float64(snap.Counter(obs.MetricServeJobs, `{outcome="rejected_full"}`)))
	o.set("serve.refused.deadline", "count", float64(snap.Counter(obs.MetricServeJobs, `{outcome="deadline"}`)))
	o.set("core.config_switches", "count", float64(snap.Counter(obs.MetricServeConfigSwitches, "")))
	// The daemon's cache counter also counts the multi-tag slot pool's
	// lookups, so the single-tag hot path is judged on the replica
	// links, which run the decode sessions alone.
	o.report["daemon_cache_lookups"] = snap.Counter(obs.MetricLinkCache, `{outcome="hit"}`) +
		snap.Counter(obs.MetricLinkCache, `{outcome="miss"}`)
	rsnap := repReg.Snapshot()
	hit := rsnap.Counter(obs.MetricLinkCache, `{outcome="hit"}`)
	miss := rsnap.Counter(obs.MetricLinkCache, `{outcome="miss"}`)
	o.set("core.cache_hit_frac", "1", 0)
	if hit+miss > 0 {
		o.set("core.cache_hit_frac", "1", float64(hit)/float64(hit+miss))
	}
	o.note("core.cache_hit_frac", fmt.Sprintf("%d hits of %d lookups on the replica links of the single-tag decode sessions", hit, hit+miss))
	switch {
	case s.cache && (hit+miss == 0 || float64(hit)/float64(hit+miss) < 0.9):
		o.violate("bypass: core.cache_hit_frac %d/%d below 0.9 on %s", hit, hit+miss, s.name)
	case !s.cache && hit+miss != 0:
		o.violate("bypass: %d excitation-cache lookups on %s's single-tag sessions, want 0", hit+miss, s.name)
	}
	var faults int64
	for _, c := range snap.Counters {
		if c.Name == obs.MetricFaultsInjected {
			faults += c.Value
		}
	}
	o.set("fault.injected", "count", float64(faults))

	o.set("gc.cycles", "count", float64(p.gcCycles))
	gcTail(o, p.gcPauses)
	o.set("proc.cpu_ms_per_frame", "ms", p.cpuMS/float64(ops))
	traceStages(o, tr)
	o.note("trace.conn_read_self_ms", "the daemon starts conn_read before it blocks on the next request, so it includes the connection's idle wait")
	for _, fig := range figureSet {
		o.set("experiments.fig"+fig+"_s", "s", 0)
	}
	o.note("experiments.fig*_s", "0: serve workloads run no figures")
	o.set("parallel.busy_frac", "1", 0)
	o.note("parallel.busy_frac", "0: measured on figures; the daemon's batch fan-out shows in trace.batch_self_ms and serve.queue_wait_ms.p99")
}

// gcTail reports the highest GC-pause percentile the cycle count
// supports.
func gcTail(o *outcome, pauses []float64) {
	ps := sorted(pauses)
	q, ok := tailQuantile(len(ps))
	if !ok {
		o.set("gc.pause_tail_ms", "ms", quantile(ps, 1))
		o.note("gc.pause_tail_ms", fmt.Sprintf("maximum of %d pauses (too few for a percentile with %d beyond)", len(ps), minBeyond))
		return
	}
	o.set("gc.pause_tail_ms", "ms", quantile(ps, q))
	o.note("gc.pause_tail_ms", fmt.Sprintf("p%g of %d pauses", q*100, len(ps)))
}

// traceStageNames are the daemon's 11 stage spans.
var traceStageNames = []string{"conn_read", "queue_wait", "batch", "channel_sim", "sic_train", "sic_cancel",
	"channel_estimate", "timing_search", "mrc", "viterbi", "resp_write"}

// traceStages reports the daemon's stage spans as self time.
func traceStages(o *outcome, tr *obs.Tracer) {
	events := tr.Events()
	spans := make([]span, len(events))
	for i, e := range events {
		spans[i] = span{Name: e.Name, Frame: e.Trace, Start: e.Start, End: e.Start + e.Dur}
	}
	nestByContainment(spans)
	self := selfTimes(spans)
	sum := map[string]float64{}
	count := map[string]int{}
	decodes := map[uint64]bool{}
	writes := map[uint64]bool{}
	for i, sp := range spans {
		sum[sp.Name] += float64(self[i]) / 1e6
		count[sp.Name]++
		switch sp.Name {
		case "decode":
			decodes[sp.Frame] = true
		case "resp_write":
			writes[sp.Frame] = true
		}
	}
	for _, st := range traceStageNames {
		v := 0.0
		if count[st] > 0 {
			v = sum[st] / float64(count[st])
		}
		o.set("trace."+st+"_self_ms", "ms", v)
	}
	missing := 0
	for id := range decodes {
		if !writes[id] {
			missing++
		}
	}
	o.set("trace.resp_write_missing", "count", float64(missing))
	sampled, nspans, dropped := tr.Stats()
	o.report["tracer"] = map[string]any{"traces": sampled, "spans": nspans, "dropped": dropped, "span_counts": count}
	if dropped > 0 {
		o.note("trace.*_self_ms", fmt.Sprintf("%d spans dropped by the tracer ring; means cover the kept ones", dropped))
	}
}
