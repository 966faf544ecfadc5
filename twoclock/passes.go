package main

import (
	"fmt"
	"runtime"
	"slices"
	"strings"
	"time"

	"r3bench/internal/cost"
	"r3bench/internal/dbgen"
	"r3bench/internal/engine"
	"r3bench/internal/r3"
	"r3bench/internal/r3/reports"
	"r3bench/internal/sqlparse"
	"r3bench/internal/tpcd"
	"r3bench/internal/val"
)

// A pass is the TPC-D power sequence: Q1–Q17, then UF1 and UF2. UF2
// deletes exactly the rows UF1 inserted, so passes repeat on one loaded
// database.
const nSteps = 19

// passSF is the scale factor of both pass workloads.
const passSF = 0.005

var stepLabels = func() [nSteps]string {
	var l [nSteps]string
	for q := 1; q <= 17; q++ {
		l[q-1] = fmt.Sprintf("Q%d", q)
	}
	l[17], l[18] = "UF1", "UF2"
	return l
}()

// passEnv is one loaded system a pass runs against, behind the same
// tpcd.Implementation interface the repository's power test drives.
type passEnv struct {
	impl  tpcd.Implementation
	db    *engine.DB // the engine under the workload
	meter *cost.Meter
	// Each step is one span, named prefix.Qn / prefix.UFn and filed under
	// layer. On power the steps are tpcd.RDBMS calls, which do nothing but
	// hand the TPC-D statements to one engine session, so their time is
	// the engine's.
	prefix, layer string
	sess          *engine.Session  // power: the session of tpcd.NewRDBMS
	sys           *r3.System       // r3_open22
	sap           *reports.SAPImpl // r3_open22
	qs            []tpcd.Query
}

// passResult is one pass on both clocks.
type passResult struct {
	wall, sim, gc time.Duration
	stepWall      [nSteps]time.Duration
	answers       [17][][]val.Value
	failed        int
}

// runPass times one pass. Step failures are counted, not fatal, so the
// run reports them against the steps attempted.
func (e *passEnv) runPass(tr *tracer, req int64) passResult {
	var p passResult
	root := tr.begin("pass", "bench", -1, req)
	simStart := e.meter.Elapsed()
	start := time.Now()
	for i := 0; i < nSteps; i++ {
		if i == 17 {
			// The update functions are short (a few ms) beside queries
			// that allocate hundreds of MB, so whether a collection is
			// running while they do would decide their latency. They start
			// after a forced collection, which the pass time includes.
			gcStart := time.Now()
			runtime.GC()
			p.gc = time.Since(gcStart)
		}
		stepStart := time.Now()
		step := tr.begin(e.prefix+"."+stepLabels[i], e.layer, root, req)
		var err error
		switch i {
		case 17:
			err = e.impl.RunUF1()
		case 18:
			err = e.impl.RunUF2()
		default:
			p.answers[i], err = e.impl.RunQuery(i + 1)
		}
		tr.finish(step)
		p.stepWall[i] = time.Since(stepStart)
		if err != nil {
			logf("%s: %v", stepLabels[i], err)
			p.failed++
		}
	}
	p.wall = time.Since(start)
	p.sim = e.meter.Lap(simStart)
	tr.finish(root)
	return p
}

// buildPower generates and loads the TPC-D database.
func buildPower(sf float64) (*passEnv, error) {
	g := dbgen.New(sf)
	db := engine.Open(engine.Config{})
	if err := tpcd.Load(db, g, nil); err != nil {
		return nil, fmt.Errorf("loading TPC-D database: %w", err)
	}
	rdb := tpcd.NewRDBMS(db, g)
	return &passEnv{impl: rdb, db: db, meter: rdb.Meter(), prefix: "tpcd", layer: "engine",
		sess: rdb.Session(), qs: tpcd.Queries(sf)}, nil
}

// buildR3 installs a Release 2.2G system and loads it.
func buildR3(sf float64) (*passEnv, error) {
	g := dbgen.New(sf)
	sys, err := r3.Install(r3.Config{Release: r3.Release22})
	if err != nil {
		return nil, fmt.Errorf("installing R/3: %w", err)
	}
	if err := sys.LoadDirect(g); err != nil {
		return nil, fmt.Errorf("loading R/3: %w", err)
	}
	sap := reports.New(sys, g, reports.Open22)
	return &passEnv{impl: sap, db: sys.DB, meter: sap.Meter(), prefix: "reports.Open22", layer: "r3",
		sys: sys, sap: sap}, nil
}

// genSeconds times the dbgen entity streams alone, with no loading.
func genSeconds(sf float64) float64 {
	g := dbgen.New(sf)
	start := time.Now()
	// The streams fail only when the callback does, and these never do.
	_ = g.Regions()
	_ = g.NationRows()
	_ = g.Suppliers(func(dbgen.Supplier) error { return nil })
	_ = g.Parts(func(dbgen.Part) error { return nil })
	_ = g.PartSupps(func(dbgen.PartSupp) error { return nil })
	_ = g.Customers(func(dbgen.Customer) error { return nil })
	_ = g.Orders(func(*dbgen.Order) error { return nil })
	return time.Since(start).Seconds()
}

// layerCounters snapshots the public counters of every layer a pass
// touches; two snapshots bracket a window.
type layerCounters struct {
	eng                        engine.EngineStats
	poolHits, poolMisses       int64
	ixHits, ixMisses, ixBypass int64
	seq, rnd, ra, tuples       int64
	curHits, curMisses         int64
	gc                         goCounters
}

func snapCounters(db *engine.DB, m *cost.Meter, sys *r3.System) layerCounters {
	c := layerCounters{eng: db.Stats(), gc: readGoCounters()}
	for _, s := range db.Pool().Stats() {
		c.poolHits += s.Hits + s.ReadaheadHits
		c.poolMisses += s.Misses
	}
	if ix := db.IndexCache(); ix != nil {
		st := ix.Stats()
		c.ixHits, c.ixMisses, c.ixBypass = st.Hits, st.Misses, st.ScanBypass
	}
	if m != nil {
		c.seq, c.rnd, c.ra, c.tuples = m.Count(cost.SeqRead), m.Count(cost.RandRead), m.Count(cost.ReadAhead), m.Count(cost.TupleCPU)
	}
	if sys != nil {
		c.curHits, c.curMisses = sys.CursorStats()
	}
	return c
}

// heapBytesPerLiveByte is allocated heap bytes over live row bytes,
// across every table of db.
func heapBytesPerLiveByte(db *engine.DB) float64 {
	var heap, live float64
	for _, name := range db.TableNames() {
		t := db.Table(name)
		if t == nil {
			continue
		}
		heap += float64(t.DataBytes())
		live += float64(t.Rows()) * float64(t.Heap.Codec().RowBytes())
	}
	return ratio(heap, live)
}

// corpus is the front-end sample of the pass workloads: the
// single-statement TPC-D queries (Q15 needs its view).
func corpus(qs []tpcd.Query) []string {
	var out []string
	for _, q := range qs {
		if len(q.SQL) == 1 {
			out = append(out, q.SQL[0])
		}
	}
	return out
}

// frontEndMicros measures the parser alone and a full engine Prepare
// (parse through the fingerprint cache plus optimize) over texts: the
// median per statement of several rounds, in microseconds.
func frontEndMicros(sess *engine.Session, texts []string) (parseUS, prepareUS float64, err error) {
	const rounds = 20
	var parse, prep []float64
	for r := 0; r < rounds; r++ {
		for _, sql := range texts {
			start := time.Now()
			_, perr := sqlparse.Parse(sql)
			parse = append(parse, us(time.Since(start)))
			if perr != nil {
				return 0, 0, fmt.Errorf("parsing %.40q: %w", sql, perr)
			}
			start = time.Now()
			_, perr = sess.Prepare(sql)
			prep = append(prep, us(time.Since(start)))
			if perr != nil {
				return 0, 0, fmt.Errorf("preparing %.40q: %w", sql, perr)
			}
		}
	}
	return median(parse), median(prep), nil
}

// operatorSimMS runs Q1–Q17 through Session.ExplainAnalyze and files each
// operator span's simulated time under scan, join, aggregate, sort, ship
// or optimize. It also checks that every statement's span tree accounts
// for exactly the meter time the statement charged; the largest
// relative gap is returned.
func operatorSimMS(sess *engine.Session, qs []tpcd.Query) (map[string]float64, float64, error) {
	out := map[string]float64{"scan": 0, "join": 0, "aggregate": 0, "sort": 0, "ship": 0, "optimize": 0}
	var worst float64
	for _, q := range qs {
		for _, sql := range q.SQL {
			if !strings.HasPrefix(strings.TrimSpace(strings.ToUpper(sql)), "SELECT") {
				if _, err := sess.Exec(sql); err != nil {
					return nil, 0, fmt.Errorf("Q%d: %w", q.Num, err)
				}
				continue
			}
			before := sess.Meter.Elapsed()
			a, err := sess.ExplainAnalyze(sql)
			if err != nil {
				return nil, 0, fmt.Errorf("Q%d explain analyze: %w", q.Num, err)
			}
			charged := sess.Meter.Lap(before)
			if charged > 0 {
				if e := ratio(float64(absDur(a.Root.Total()-charged)), float64(charged)); e > worst {
					worst = e
				}
			}
			fileOperators(a.Root, out)
		}
	}
	return out, worst, nil
}

func absDur(d time.Duration) time.Duration {
	if d < 0 {
		return -d
	}
	return d
}

// fileOperators adds the self time of s and its non-lane descendants to
// the operator class its name denotes.
func fileOperators(s *cost.Span, out map[string]float64) {
	name := s.Name()
	class := "scan"
	switch {
	case strings.Contains(name, "join"):
		class = "join"
	case strings.HasPrefix(name, "sort-group"):
		class = "aggregate"
	case strings.HasPrefix(name, "output"):
		class = "sort"
	case name == "row-ship":
		class = "ship"
	case name == "parse+optimize" || name == "statement" || name == "subquery" || strings.HasPrefix(name, "parallel"):
		class = "optimize"
	}
	out[class] += ms(s.Elapsed())
	for _, c := range s.Children() {
		if !c.Lane() {
			fileOperators(c, out)
		}
	}
}

// runPassWorkload is the power and r3_open22 workload.
func runPassWorkload(cfg config) (*result, error) {
	const sf = passSF
	isR3 := cfg.workload == "r3_open22"
	build := buildPower
	if isR3 {
		build = buildR3
	}
	res := newResult()
	det := map[string]any{"workload": cfg.workload, "seed": cfg.seed, "sf": sf}

	// Every pass, the untimed warm-up included, must return the
	// committed reference answers.
	ref, err := loadReference()
	if err != nil {
		return nil, err
	}
	// r3_open22 times the front end on an engine TPC-D database, built
	// and dropped before the R/3 set-up.
	var parseUS, prepareUS float64
	if isR3 && cfg.trace {
		penv, err := buildPower(sf)
		if err != nil {
			return nil, err
		}
		if parseUS, prepareUS, err = frontEndMicros(penv.sess, corpus(penv.qs)); err != nil {
			return nil, err
		}
	}

	var env *passEnv
	var setups []float64
	for i := 0; i < setupReps; i++ {
		env = nil
		runtime.GC()
		start := time.Now()
		e, err := build(sf)
		if err != nil {
			return nil, err
		}
		setups = append(setups, time.Since(start).Seconds())
		env = e
	}
	det["setup_s"] = append([]float64(nil), setups...)
	setupS := median(setups)

	run := func(tr *tracer, req int64) passResult {
		p := env.runPass(tr, req)
		res.attempted += nSteps
		res.failed += int64(p.failed)
		res.check(fmt.Sprintf("pass %d answers equal the reference", req), answersAgree(ref, p.answers))
		return p
	}
	// Untimed warm-up pass: the cold cost.
	warm := run(nil, -1)
	det["warmup_sim_ms"] = ms(warm.sim)
	det["warmup_wall_ms"] = ms(warm.wall)

	timed := func(tr *tracer, first int64) []passResult {
		var out []passResult
		start := time.Now()
		for i := int64(0); len(out) == 0 || time.Since(start) < cfg.window(); i++ {
			out = append(out, run(tr, first+i))
		}
		return out
	}

	before := snapCounters(env.db, env.meter, env.sys)
	passes := timed(nil, 0)
	after := snapCounters(env.db, env.meter, env.sys)
	e2e := passMetrics(passes)
	e2e["setup_s"] = setupS
	sims, walls := make([]float64, len(passes)), make([]float64, len(passes))
	for i, p := range passes {
		sims[i], walls[i] = ms(p.sim), ms(p.wall)
	}
	det["pass_sim_ms"] = sims
	det["pass_wall_ms"] = walls
	ufs := make([][2]float64, len(passes))
	for i, p := range passes {
		ufs[i] = [2]float64{ms(p.stepWall[17]), ms(p.stepWall[18])}
	}
	det["pass_uf_ms"] = ufs
	det["passes"] = len(passes)
	det["pass_gc_ms"] = passGC(passes)

	if !cfg.trace {
		e2e["mem_peak_mb"] = peakRSSMB()
		res.putEndToEnd(e2e)
		det["samples"] = map[string]int{"passes": len(passes)}
		res.detail = det
		return res, nil
	}

	// Traced window: same passes with spans on and a CPU profile.
	tr := newTracer()
	var phases *r3.Phases
	if isR3 {
		phases = env.sap.EnablePhases()
	}
	phaseSimStart := env.meter.Elapsed()
	prof, err := startProfile()
	if err != nil {
		return nil, err
	}
	traced := timed(tr, int64(len(passes)))
	cpuShares, err := prof.stop()
	if err != nil {
		return nil, err
	}
	phaseSim := env.meter.Lap(phaseSimStart)
	tracedE2E := passMetrics(traced)

	n := float64(len(passes))
	put := res.put
	det["gen_s"] = genSeconds(sf)
	put("setup.gen_s", det["gen_s"].(float64), "s")
	put("setup.load_s", setupS-det["gen_s"].(float64), "s")

	if !isR3 {
		if parseUS, prepareUS, err = frontEndMicros(env.sess, corpus(env.qs)); err != nil {
			return nil, err
		}
	}
	put("sqlparse.parse_us", parseUS, "us")
	put("engine.prepare_us", prepareUS, "us")
	put("engine.parse_hit_ratio", ratio(float64(after.eng.ParseHits), float64(after.eng.ParseStatements)), "ratio")

	// Per-step time from the step spans: engine time on power, report
	// time on r3_open22.
	perStep := stepMillis(tr, env.prefix)
	for q := 1; q <= 17; q++ {
		eq, rq := perStep[q-1], 0.0
		if isR3 {
			eq, rq = 0, perStep[q-1]
		}
		put(fmt.Sprintf("engine.exec_ms.q%d", q), eq, "ms")
		put(fmt.Sprintf("r3.query_ms.q%d", q), rq, "ms")
	}
	ufMS := 0.0
	if isR3 {
		ufMS = perStep[17] + perStep[18]
	}
	put("r3.uf_ms", ufMS, "ms")

	d := func(f func(c layerCounters) int64) float64 { return float64(f(after) - f(before)) }
	put("engine.replans_per_pass", d(func(c layerCounters) int64 { return c.eng.Replans })/n, "count")
	put("engine.selects_per_pass", d(func(c layerCounters) int64 { return c.eng.Selects })/n, "count")
	put("engine.tuples_per_row", ratio(d(func(c layerCounters) int64 { return c.tuples }), d(func(c layerCounters) int64 { return c.eng.RowsShipped })), "count")

	ops := map[string]float64{"scan": 0, "join": 0, "aggregate": 0, "sort": 0, "ship": 0, "optimize": 0}
	simErr := 0.0
	if !isR3 {
		if ops, simErr, err = operatorSimMS(env.sess, env.qs); err != nil {
			return nil, err
		}
	}
	for _, k := range []string{"scan", "join", "aggregate", "sort", "ship", "optimize"} {
		put("engine.sim_ms."+k, ops[k], "sim-ms")
	}

	hits, misses := d(func(c layerCounters) int64 { return c.poolHits }), d(func(c layerCounters) int64 { return c.poolMisses })
	put("storage.pool_hit_ratio", ratio(hits, hits+misses), "ratio")
	put("storage.seq_reads_per_pass", d(func(c layerCounters) int64 { return c.seq })/n, "count")
	put("storage.rand_reads_per_pass", d(func(c layerCounters) int64 { return c.rnd })/n, "count")
	put("storage.readahead_per_pass", d(func(c layerCounters) int64 { return c.ra })/n, "count")
	put("storage.cold_extra_sim_ms", ms(warm.sim)-e2e["sim_ms"], "sim-ms")
	put("storage.heap_bytes_per_live_byte", heapBytesPerLiveByte(env.db), "ratio")
	put("storage.wal_bytes_per_user_byte", 0, "ratio")
	put("storage.wal_fsyncs_per_commit", 0, "ratio")
	put("storage.wal_checkpoints_per_kop", 0, "count")
	put("storage.acked_unforced", 0, "count")

	ixh, ixm := d(func(c layerCounters) int64 { return c.ixHits }), d(func(c layerCounters) int64 { return c.ixMisses })
	probeMiss := ixm - d(func(c layerCounters) int64 { return c.ixBypass })
	put("btree.index_cache_hit_ratio", ratio(ixh, ixh+ixm), "ratio")
	put("btree.rand_reads_per_lookup", ratio(probeMiss, d(func(c layerCounters) int64 { return c.eng.Selects })), "count")

	put("r3.interface_calls_per_pass", d(func(c layerCounters) int64 { return c.eng.InterfaceCalls })/n, "count")
	put("r3.rows_shipped_per_pass", d(func(c layerCounters) int64 { return c.eng.RowsShipped })/n, "count")
	ch, cm := d(func(c layerCounters) int64 { return c.curHits }), d(func(c layerCounters) int64 { return c.curMisses })
	put("r3.cursor_cache_hit_ratio", ratio(ch, ch+cm), "ratio")
	tn := float64(len(traced))
	var trans, dbp, client float64
	if phases != nil {
		trans, dbp, client = ms(phases.Translate.Total())/tn, ms(phases.DB.Total())/tn, ms(phases.Client.Total())/tn
		if phaseSim > 0 {
			if e := ratio(float64(absDur(phases.Root.Total()-phaseSim)), float64(phaseSim)); e > simErr {
				simErr = e
			}
		}
	}
	put("r3.sim_ms.translate", trans, "sim-ms")
	put("r3.sim_ms.db", dbp, "sim-ms")
	put("r3.sim_ms.client", client, "sim-ms")

	put("wire.roundtrip_us", 0, "us")
	put("wire.engine_us", 0, "us")
	put("wire.overhead_us", 0, "us")
	put("wire.bytes_per_op", 0, "B")
	put("wire.frames_per_op", 0, "count")
	goWindow(before.gc, after.gc, int64(nSteps*len(passes)), put)
	putCPU(put, cpuShares)

	var tracedWall time.Duration
	for _, p := range traced {
		tracedWall += p.wall
	}
	sum := tr.summarize(tracedWall)
	putTrace(put, sum, e2e["pass_ms"], tracedE2E["pass_ms"], simErr)
	res.check("span self times and root spans reconcile", sum.reconciles())
	res.check("sim-time span trees reconcile with the meter", simErr <= 1e-9)
	det["traced_pass_ms"] = tracedE2E["pass_ms"]
	det["trace"] = sum
	if err := tr.write(cfg.spansPath(), sum, map[string]any{"workload": cfg.workload, "seed": cfg.seed}); err != nil {
		return nil, err
	}
	res.detail = det
	return res, nil
}

// passMetrics turns timed passes into the end-to-end figures.
func passMetrics(passes []passResult) map[string]float64 {
	var wall, sims []float64 // sims[0]: the first timed pass, one warm pass
	var stepMS [nSteps][]float64
	var total time.Duration
	for _, p := range passes {
		wall = append(wall, ms(p.wall))
		sims = append(sims, ms(p.sim))
		total += p.wall
		for i := 0; i < nSteps; i++ {
			stepMS[i] = append(stepMS[i], ms(p.stepWall[i]))
		}
	}
	// Each step is summarized by its median over the passes. A pass runs
	// every step once, so the latency figures are over step kinds, as
	// TPC-D reports them: the median and the slowest of the 17 queries,
	// and of the two update functions.
	var medians, reads, writes []float64
	for i := range stepMS {
		m := median(stepMS[i])
		medians = append(medians, m)
		if i < 17 {
			reads = append(reads, m*1e3)
		} else {
			writes = append(writes, m*1e3)
		}
	}
	return map[string]float64{
		"pass_ms":       median(wall),
		"geomean_ms":    geomean(medians),
		"sim_ms":        sims[0],
		"ops_per_s":     float64(nSteps*len(passes)) / total.Seconds(),
		"read_us_p50":   median(reads),
		"read_us_tail":  slices.Max(reads),
		"write_us_p50":  median(writes),
		"write_us_tail": slices.Max(writes),
	}
}

// stepMillis is the median over traced passes of each step's span,
// in step order.
func stepMillis(tr *tracer, prefix string) [nSteps]float64 {
	spans := tr.all()
	index := map[string]int{}
	for i, l := range stepLabels {
		index[prefix+"."+l] = i
	}
	var xs [nSteps][]float64
	for _, s := range spans {
		if i, ok := index[s.Name]; ok && s.Req >= 0 {
			xs[i] = append(xs[i], ms(time.Duration(s.End-s.Start)))
		}
	}
	var out [nSteps]float64
	for i := range xs {
		out[i] = median(xs[i])
	}
	return out
}

// passGC is the median time of the forced collection before UF1.
func passGC(passes []passResult) float64 {
	xs := make([]float64, len(passes))
	for i, p := range passes {
		xs[i] = ms(p.gc)
	}
	return median(xs)
}
