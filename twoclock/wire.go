package main

import (
	"fmt"
	"math"
	"math/rand"
	"net"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"r3bench/internal/client"
	"r3bench/internal/cost"
	"r3bench/internal/dbgen"
	"r3bench/internal/engine"
	"r3bench/internal/server"
	"r3bench/internal/storage"
	"r3bench/internal/tpcd"
	"r3bench/internal/val"
)

// The orders_wire mix: 70% point reads of ORDERS by key, 15% range reads
// of one order's LINEITEM rows, 10% new orders (an order plus its 1–7
// lines, one autocommitted statement each) and 5% cancels of an order
// the same client inserted earlier. Read keys follow a Zipf law over the
// loaded orders. Reads of every client run beside the writes, but the
// writes of all clients pass through one lane, one operation at a time:
// the engine's B-tree iterator keeps a (leaf, index) position across
// calls that release the tree's lock, so a DELETE whose index scan runs
// while another session inserts into the same leaves can skip, repeat or
// miss entries (see README.md, Known defects).
const (
	wireSF       = 0.005
	groupCommit  = 8       // WAL group-commit size
	warmSeconds  = 8       // untimed warm-up of the mix; see below
	memOps       = 100_000 // mem_peak_mb is read when this many operations are done
	passOps      = 1000    // a "pass" of the mix, for pass_ms and sim_ms
	replayOps    = 2000    // the sample replayed in-process and serially over the wire
	replayStream = 1997    // its operation stream, the same for every seed
	traceEvery   = 4       // the traced window records spans for one op in traceEvery
	zipfS        = 1.1
	keyBase      = 100_000_000 // inserted orders get keys far above the loaded ones
	keyStride    = 10_000_000  // per client
	maxLostCheck = 10_000      // how far back the recovery check looks for the lost suffix
)

const (
	opPoint = iota
	opRange
	opInsert
	opCancel
	nOpKinds
)

var opNames = [nOpKinds]string{"point", "range", "insert", "cancel"}

var wireSQL = [...]string{
	`SELECT * FROM orders WHERE o_orderkey = ?`,
	`SELECT * FROM lineitem WHERE l_orderkey = ?`,
	`INSERT INTO orders VALUES (?, ?, ?, ?, ?, ?, ?, ?, ?)`,
	`INSERT INTO lineitem VALUES (?, ?, ?, ?, ?, ?, ?, ?, ?, ?, ?, ?, ?, ?, ?, ?)`,
	`DELETE FROM lineitem WHERE l_orderkey = ?`,
	`DELETE FROM orders WHERE o_orderkey = ?`,
}

const (
	sPoint = iota
	sRange
	sInsOrder
	sInsLine
	sDelLines
	sDelOrder
)

// querier is what client.Stmt and engine.Stmt have in common.
type querier interface {
	Query(params ...val.Value) (*engine.Result, error)
}

// stmtRec is one acknowledged write statement, for the state checks.
type stmtRec struct {
	kind byte // 'o' insert order, 'l' insert line, 'L' delete lines, 'O' delete order
	key  int64
	n    int // rows deleted by 'L'
}

// population is what the loaded database must answer for base orders.
type population struct {
	maxKey     int64
	totalPrice map[int64]float64
	lines      map[int64]int
	baseLines  int
	templates  []*dbgen.Order
	orderBytes int64
	lineBytes  int64
}

func loadPopulation(g *dbgen.Generator) (*population, error) {
	p := &population{totalPrice: map[int64]float64{}, lines: map[int64]int{}}
	err := g.Orders(func(o *dbgen.Order) error {
		p.totalPrice[o.Key] = o.TotalPrice
		p.lines[o.Key] = len(o.Lines)
		p.baseLines += len(o.Lines)
		if o.Key > p.maxKey {
			p.maxKey = o.Key
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	err = g.UF1Orders(func(o *dbgen.Order) error {
		p.templates = append(p.templates, o)
		return nil
	})
	return p, err
}

// worker is one client: a wire connection or an in-process session.
type worker struct {
	id    int
	pop   *population
	rng   *rand.Rand
	zipf  *rand.Zipf
	stmts [len(wireSQL)]querier
	slot  reqSlot
	lane  *sync.Mutex // the write lane shared by concurrent clients, if any

	nextKey int64
	live    []int64 // inserted, acknowledged, not yet cancelled (FIFO)
	linesOf map[int64]int
	log     []stmtRec

	// Per-window measurements.
	lat       [nOpKinds][]float64 // microseconds
	ends      []int64             // op completion, ns since the window began
	perOp     []float64           // microseconds per op, in op order
	userBytes int64               // row bytes written
	rowsRead  int64               // rows returned by reads
	tracedNs  int64               // measured time of the traced ops

	// Whole-run totals.
	ops, failed, wrong int64
}

// newWorker seeds a client's operation stream. Two workers built with
// the same stream number issue the same operations in the same order.
func newWorker(id int, stream int64, pop *population) *worker {
	rng := rand.New(rand.NewSource(stream))
	return &worker{
		id:      id,
		pop:     pop,
		rng:     rng,
		zipf:    rand.NewZipf(rng, zipfS, 1, uint64(pop.maxKey-1)),
		nextKey: keyBase + int64(id)*keyStride,
		linesOf: map[int64]int{},
	}
}

func (w *worker) resetWindow() {
	for k := range w.lat {
		w.lat[k] = w.lat[k][:0]
	}
	w.ends, w.perOp = w.ends[:0], w.perOp[:0]
	w.userBytes, w.rowsRead, w.tracedNs = 0, 0, 0
}

// next draws the kind and read key of the next operation.
func (w *worker) next() (kind int, key int64) {
	r := w.rng.Intn(100)
	key = 1 + int64(w.zipf.Uint64())
	switch {
	case r < 70:
		kind = opPoint
	case r < 85:
		kind = opRange
	case r < 95:
		kind = opInsert
	default:
		kind = opCancel
	}
	if kind == opCancel && len(w.live) == 0 {
		kind = opPoint
	}
	return kind, key
}

// query runs one statement; when the op is sampled it is a
// "client.Stmt.Query" span whose id the server side picks up.
func (w *worker) query(s int, tr *tracer, parent int32, req int64, params ...val.Value) (*engine.Result, error) {
	id := tr.begin("client.Stmt.Query", "client", parent, req)
	w.slot.span.Store(id)
	w.slot.req.Store(req)
	res, err := w.stmts[s].Query(params...)
	tr.finish(id)
	w.slot.span.Store(-1)
	return res, err
}

// op performs one operation of the mix and checks its answer.
func (w *worker) op(tr *tracer, req int64, origin time.Time) {
	kind, key := w.next()
	// The root span opens just after the op's clock starts and closes just
	// after it stops, so it covers the interval the latency measures.
	start := time.Now()
	var root int32 = -1
	if tr != nil {
		root = tr.begin("op."+opNames[kind], "bench", -1, req)
	}
	ok, right := w.do(kind, key, tr, root, req)
	d := time.Since(start)
	tr.finish(root)
	if tr != nil {
		w.tracedNs += int64(d)
	}
	w.ops++
	if !ok {
		w.failed++
	}
	if !right {
		w.wrong++
	}
	w.lat[kind] = append(w.lat[kind], us(d))
	w.ends = append(w.ends, int64(time.Since(origin)))
	w.perOp = append(w.perOp, us(d))
}

// do executes the op; ok is false when a statement failed, right is
// false when an answer was wrong.
func (w *worker) do(kind int, key int64, tr *tracer, parent int32, req int64) (ok, right bool) {
	if (kind == opInsert || kind == opCancel) && w.lane != nil {
		w.lane.Lock()
		defer w.lane.Unlock()
	}
	switch kind {
	case opPoint:
		res, err := w.query(sPoint, tr, parent, req, val.Int(key))
		if err != nil {
			logf("point read %d: %v", key, err)
			return false, true
		}
		w.rowsRead += int64(len(res.Rows))
		good := len(res.Rows) == 1 && res.Rows[0][0].AsInt() == key &&
			math.Abs(res.Rows[0][3].AsFloat()-w.pop.totalPrice[key]) < 0.005
		if !good {
			logf("point read %d: wrong answer %v", key, res.Rows)
		}
		return good, good
	case opRange:
		res, err := w.query(sRange, tr, parent, req, val.Int(key))
		if err != nil {
			logf("range read %d: %v", key, err)
			return false, true
		}
		w.rowsRead += int64(len(res.Rows))
		good := len(res.Rows) == w.pop.lines[key]
		for _, r := range res.Rows {
			good = good && r[0].AsInt() == key
		}
		if !good {
			logf("range read %d: %d rows, want %d", key, len(res.Rows), w.pop.lines[key])
		}
		return good, good
	case opInsert:
		t := w.pop.templates[w.rng.Intn(len(w.pop.templates))]
		k := w.nextKey
		w.nextKey++
		row := tpcd.OrderRow(t)
		row[0] = val.Int(k)
		if _, err := w.query(sInsOrder, tr, parent, req, row...); err != nil {
			logf("insert order %d: %v", k, err)
			return false, true
		}
		w.log = append(w.log, stmtRec{kind: 'o', key: k})
		w.userBytes += w.pop.orderBytes
		for _, li := range t.Lines {
			lrow := tpcd.LineitemRow(li)
			lrow[0] = val.Int(k)
			if _, err := w.query(sInsLine, tr, parent, req, lrow...); err != nil {
				logf("insert line of %d: %v", k, err)
				return false, true
			}
			w.log = append(w.log, stmtRec{kind: 'l', key: k})
			w.userBytes += w.pop.lineBytes
		}
		w.live = append(w.live, k)
		w.linesOf[k] = len(t.Lines)
		return true, true
	default: // opCancel
		k := w.live[0]
		w.live = w.live[1:]
		res, err := w.query(sDelLines, tr, parent, req, val.Int(k))
		if err != nil {
			logf("cancel lines of %d: %v", k, err)
			return false, true
		}
		n := int(res.RowsAffected)
		w.log = append(w.log, stmtRec{kind: 'L', key: k, n: n})
		w.userBytes += int64(n) * w.pop.lineBytes
		res, err = w.query(sDelOrder, tr, parent, req, val.Int(k))
		if err != nil {
			logf("cancel order %d: %v", k, err)
			return false, true
		}
		w.log = append(w.log, stmtRec{kind: 'O', key: k})
		w.userBytes += w.pop.orderBytes
		good := n == w.linesOf[k] && res.RowsAffected == 1
		if !good {
			logf("cancel %d: deleted %d lines and %d orders, want %d and 1", k, n, res.RowsAffected, w.linesOf[k])
		}
		delete(w.linesOf, k)
		return good, good
	}
}

// wireRig is the loaded database behind a server on loopback TCP.
type wireRig struct {
	ln     *countingListener
	srv    *server.Server
	served chan error
	conns  []*client.Conn
}

func (r *wireRig) dial(w *worker) error {
	c, err := client.Dial(r.ln.Addr().String())
	if err != nil {
		return fmt.Errorf("dialing server: %w", err)
	}
	r.conns = append(r.conns, c)
	cc := <-r.ln.accepted
	w.slot.span.Store(-1)
	cc.slot.Store(&w.slot)
	for i, sql := range wireSQL {
		st, err := c.Prepare(sql)
		if err != nil {
			return fmt.Errorf("preparing %q: %w", sql, err)
		}
		w.stmts[i] = st
	}
	return nil
}

// stop closes the clients and the server and waits for Serve to return.
func (r *wireRig) stop() error {
	for _, c := range r.conns {
		c.Close()
	}
	r.srv.Close()
	return <-r.served
}

// memProbe reads the process's peak resident set once, when the
// operations of every worker together reach at. The WAL keeps its whole
// log in memory and the mix inserts twice as often as it cancels, so the
// peak grows with the operations done; read after a fixed number of them
// it does not depend on how fast they ran.
type memProbe struct {
	at int64
	n  atomic.Int64
	mb float64
}

func (p *memProbe) pending() bool { return p != nil && p.n.Load() < p.at }

func (p *memProbe) count() {
	if p != nil && p.n.Add(1) == p.at {
		p.mb = peakRSSMB()
	}
}

// holder keeps a window running past its deadline while it is pending;
// count is called after every operation.
type holder interface {
	pending() bool
	count()
}

// checkpointWait is pending until the log has taken a checkpoint since
// from, or until gives up. A window held by it ends right after a
// checkpoint, so the next few megabytes of log take none: the in-process
// replay then never pays for one, whatever the warm-up wrote before it.
type checkpointWait struct {
	wal    *storage.WAL
	from   int64
	giveUp time.Time
}

func (c checkpointWait) pending() bool {
	return c.wal.Stats().Checkpoints == c.from && time.Now().Before(c.giveUp)
}
func (c checkpointWait) count() {}

// window runs the mix on every worker until d has passed and hold, if
// any, is no longer pending.
func window(workers []*worker, d time.Duration, tr *tracer, hold holder) time.Duration {
	origin := time.Now()
	deadline := origin.Add(d)
	var wg sync.WaitGroup
	for _, w := range workers {
		w.resetWindow()
		wg.Add(1)
		go func(w *worker) {
			defer wg.Done()
			for i := int64(0); time.Now().Before(deadline) || hold != nil && hold.pending(); i++ {
				req := int64(w.id)<<40 | i
				if i%traceEvery == 0 {
					w.op(tr, req, origin)
				} else {
					w.op(nil, req, origin)
				}
				if hold != nil {
					hold.count()
				}
			}
		}(w)
	}
	wg.Wait()
	return time.Since(origin)
}

// replay runs replayOps operations serially on one worker.
func replay(w *worker) {
	w.resetWindow()
	origin := time.Now()
	for i := 0; i < replayOps; i++ {
		w.op(nil, int64(i), origin)
	}
}

// wireCounters snapshots the in-process counters of the layers under
// the server.
type wireCounters struct {
	eng                  engine.EngineStats
	poolHits, poolMisses int64
	ixHits, ixMisses     int64
	wal                  storage.WalStats
	gc                   goCounters
}

func snapWire(db *engine.DB) wireCounters {
	c := wireCounters{eng: db.Stats(), wal: db.WAL().Stats(), gc: readGoCounters()}
	for _, s := range db.Pool().Stats() {
		c.poolHits += s.Hits + s.ReadaheadHits
		c.poolMisses += s.Misses
	}
	if ix := db.IndexCache(); ix != nil {
		st := ix.Stats()
		c.ixHits, c.ixMisses = st.Hits, st.Misses
	}
	return c
}

// wireMetrics turns one window of every client into the end-to-end
// figures, and reports the sample counts behind them.
func wireMetrics(workers []*worker, elapsed time.Duration) (map[string]float64, map[string]int) {
	var kinds [nOpKinds][]float64
	var ends []int64
	for _, w := range workers {
		for k := range kinds {
			kinds[k] = append(kinds[k], w.lat[k]...)
		}
		ends = append(ends, w.ends...)
	}
	sort.Slice(ends, func(i, j int) bool { return ends[i] < ends[j] })
	var passes []float64
	prev := int64(0)
	for i := passOps - 1; i < len(ends); i += passOps {
		passes = append(passes, float64(ends[i]-prev)/1e6)
		prev = ends[i]
	}
	reads := append(append([]float64(nil), kinds[opPoint]...), kinds[opRange]...)
	writes := append(append([]float64(nil), kinds[opInsert]...), kinds[opCancel]...)
	var kindMS []float64
	samples := map[string]int{"ops": len(ends), "passes": len(passes), "reads": len(reads), "writes": len(writes)}
	for k := range kinds {
		samples[opNames[k]] = len(kinds[k])
		kindMS = append(kindMS, median(kinds[k])/1e3)
	}
	return map[string]float64{
		"pass_ms":       median(passes),
		"geomean_ms":    geomean(kindMS),
		"ops_per_s":     float64(len(ends)) / elapsed.Seconds(),
		"read_us_p50":   median(reads),
		"read_us_tail":  tail(reads),
		"write_us_p50":  median(writes),
		"write_us_tail": tail(writes),
	}, samples
}

// tableState is what the heap holds for the inserted key range, plus
// whether every index of every table agrees with its heap.
type tableState struct {
	orders      map[int64]bool
	lines       map[int64]int
	baseOrders  int
	baseLines   int
	indexAgrees bool
}

// heapRows scans ORDERS and LINEITEM straight from their heaps, and
// compares every table's heap with each of its indexes by row id.
func heapRows(db *engine.DB, pop *population) tableState {
	st := tableState{orders: map[int64]bool{}, lines: map[int64]int{}, indexAgrees: true}
	for _, name := range db.TableNames() {
		t := db.Table(name)
		heap := map[storage.RID]bool{}
		isOrders, isLines := name == "ORDERS", name == "LINEITEM"
		err := t.Heap.Scan(nil, func(rid storage.RID, row []val.Value) error {
			heap[rid] = true
			switch {
			case isOrders && row[0].AsInt() > pop.maxKey:
				st.orders[row[0].AsInt()] = true
			case isOrders:
				st.baseOrders++
			case isLines && row[0].AsInt() > pop.maxKey:
				st.lines[row[0].AsInt()]++
			case isLines:
				st.baseLines++
			}
			return nil
		})
		if err != nil {
			logf("scanning %s: %v", name, err)
			st.indexAgrees = false
			continue
		}
		for _, ix := range t.Indexes {
			seen := 0
			it := ix.Tree.Seek(nil, nil)
			for it.Next() {
				seen++
				if !heap[it.RID] {
					logf("index %s holds row id %v that %s's heap does not", ix.Name, it.RID, name)
					st.indexAgrees = false
				}
			}
			if seen != len(heap) || ix.Tree.Entries() != int64(len(heap)) {
				logf("index %s has %d entries, heap %s has %d rows", ix.Name, seen, name, len(heap))
				st.indexAgrees = false
			}
		}
	}
	return st
}

// checkState compares the inserted key range of the database with what
// the clients' acknowledged writes imply. With prior nil every
// acknowledged write must be there. After a crash, prior is the state
// the database held just before it: each client may then have lost a
// tail of its writes, the commits the log had not forced, and the
// number of writes lost is returned.
func checkState(clients []*worker, pop *population, st tableState, prior *tableState) (int, bool) {
	ok := st.indexAgrees
	if st.baseOrders != len(pop.totalPrice) || st.baseLines != pop.baseLines {
		logf("loaded rows changed: %d orders and %d lines, want %d and %d", st.baseOrders, st.baseLines, len(pop.totalPrice), pop.baseLines)
		ok = false
	}
	lostTotal, claimed := 0, 0
	for _, w := range clients {
		lo, hi := keyBase+int64(w.id)*keyStride, keyBase+int64(w.id+1)*keyStride
		actual := st.inRange(lo, hi)
		claimed += len(actual)
		var want map[int64]keyState
		if prior != nil {
			want = prior.inRange(lo, hi)
		} else {
			want = map[int64]keyState{}
			for _, r := range w.log {
				want[r.key] = r.apply(want[r.key], 1)
			}
		}
		mismatched := 0
		for k, v := range want {
			if v != actual[k] {
				mismatched++
			}
		}
		for k, v := range actual {
			if _, seen := want[k]; !seen && v != (keyState{}) {
				mismatched++
			}
		}
		// Walk back over the log, undoing one write at a time, until the
		// expected state matches: what was undone is the lost tail.
		i := len(w.log)
		for prior != nil && mismatched > 0 && i > 0 && len(w.log)-i < maxLostCheck {
			r := w.log[i-1]
			was := want[r.key] != actual[r.key]
			want[r.key] = r.apply(want[r.key], -1)
			now := want[r.key] != actual[r.key]
			switch {
			case was && !now:
				mismatched--
			case !was && now:
				mismatched++
			}
			i--
		}
		if mismatched > 0 {
			logf("client %d: %d inserted orders differ from its acknowledged writes", w.id, mismatched)
			ok = false
		}
		lostTotal += len(w.log) - i
	}
	if stray := len(st.inRange(keyBase, math.MaxInt64)) - claimed; stray > 0 {
		logf("%d inserted orders outside every client's key range", stray)
		ok = false
	}
	return lostTotal, ok
}

// keyState is one inserted order as the state checks see it.
type keyState struct {
	order bool
	lines int
}

// inRange returns the state of every inserted key in [lo, hi).
func (st tableState) inRange(lo, hi int64) map[int64]keyState {
	out := map[int64]keyState{}
	for k := range st.orders {
		if k >= lo && k < hi {
			out[k] = keyState{order: true, lines: st.lines[k]}
		}
	}
	for k, n := range st.lines {
		if k >= lo && k < hi {
			out[k] = keyState{order: st.orders[k], lines: n}
		}
	}
	return out
}

// apply returns s with the write applied (sign 1) or reverted (sign -1).
func (r stmtRec) apply(s keyState, sign int) keyState {
	switch r.kind {
	case 'o':
		s.order = sign > 0
	case 'O':
		s.order = sign < 0
	case 'l':
		s.lines += sign
	case 'L':
		s.lines -= sign * r.n
	}
	return s
}

func runWireWorkload(cfg config) (*result, error) {
	res := newResult()
	det := map[string]any{"workload": cfg.workload, "seed": cfg.seed, "sf": wireSF, "group_commit": groupCommit}
	nConns := runtime.GOMAXPROCS(0)
	det["connections"] = nConns

	pop, err := loadPopulation(dbgen.New(wireSF))
	if err != nil {
		return nil, err
	}
	var db *engine.DB
	var setups []float64
	for i := 0; i < setupReps; i++ {
		db = nil
		runtime.GC()
		start := time.Now()
		d := engine.Open(engine.Config{})
		if err := tpcd.Load(d, dbgen.New(wireSF), nil); err != nil {
			return nil, fmt.Errorf("loading TPC-D database: %w", err)
		}
		d.EnableWAL(groupCommit)
		setups = append(setups, time.Since(start).Seconds())
		db = d
	}
	det["setup_s"] = append([]float64(nil), setups...)
	setupS := median(setups)
	pop.orderBytes = int64(db.Table("orders").Heap.Codec().RowBytes())
	pop.lineBytes = int64(db.Table("lineitem").Heap.Codec().RowBytes())

	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, fmt.Errorf("listening on loopback: %w", err)
	}
	rig := &wireRig{ln: newCountingListener(l, nConns+1), srv: server.New(db), served: make(chan error, 1)}
	go func() { rig.served <- rig.srv.Serve(rig.ln) }()
	stopped := false
	defer func() {
		if !stopped {
			rig.stop()
		}
	}()

	// Client i draws its operations from stream seed*16+i. Both replays
	// draw from one fixed stream, so they issue the same operations as
	// each other, and sim_ms measures the same operations on every seed.
	workers := make([]*worker, nConns)
	lane := new(sync.Mutex)
	for i := range workers {
		workers[i] = newWorker(i, cfg.seed*16+int64(i), pop)
		workers[i].lane = lane
		if err := rig.dial(workers[i]); err != nil {
			return nil, err
		}
	}
	clients := append([]*worker(nil), workers...)

	// The warm-up is long because the mix settles slowly: after 2 s, the
	// read p99 of the window's first 5 s was 1.2-1.8x (median 1.5x) that
	// of its later 5 s stretches; after 8 s it was 1.0-1.4x (median 1.2x),
	// and the quartile spread of the read p99 over six seeds fell from
	// 0.29 to 0.13.
	probe := &memProbe{at: memOps}
	window(workers, warmSeconds*time.Second, nil, probe)
	det["mem_probe_ops"] = memOps
	ckpts := db.WAL().Stats().Checkpoints
	window(workers, 0, nil, checkpointWait{db.WAL(), ckpts, time.Now().Add(30 * time.Second)})
	det["replay_after_checkpoint"] = db.WAL().Stats().Checkpoints > ckpts

	// In-process replay: the engine's share of each operation, and the
	// simulated time of one pass of the mix.
	sess := db.NewSession()
	local := newWorker(nConns, replayStream, pop)
	for i, sql := range wireSQL {
		st, err := sess.Prepare(sql)
		if err != nil {
			return nil, fmt.Errorf("preparing %q: %w", sql, err)
		}
		local.stmts[i] = st
	}
	clients = append(clients, local)
	m := sess.Meter
	simStart := m.Elapsed()
	var meter0 [4]int64
	for i, k := range []cost.Kind{cost.SeqRead, cost.RandRead, cost.ReadAhead, cost.TupleCPU} {
		meter0[i] = m.Count(k)
	}
	ix0 := db.IndexCache().Stats()
	replay(local)
	simPass := ms(m.Lap(simStart)) * passOps / replayOps
	var meterPass [4]float64
	for i, k := range []cost.Kind{cost.SeqRead, cost.RandRead, cost.ReadAhead, cost.TupleCPU} {
		meterPass[i] = float64(m.Count(k)-meter0[i]) * passOps / replayOps
	}
	ix1 := db.IndexCache().Stats()
	localReads := float64(len(local.lat[opPoint]) + len(local.lat[opRange]))

	// Timed window, untraced.
	before := snapWire(db)
	elapsed := window(workers, cfg.window(), nil, nil)
	after := snapWire(db)
	e2e, samples := wireMetrics(workers, elapsed)
	var windowOps, windowBytes int64
	for _, w := range workers {
		windowOps += int64(len(w.ends))
		windowBytes += w.userBytes
	}
	det["samples"] = samples
	det["window_s"] = elapsed.Seconds()
	det["sim_ms_per_pass"] = simPass

	var traced map[string]float64
	var sum traceSummary
	var cpuShares map[string]float64
	var rt, eng, over, bytesPerOp, framesPerOp float64
	var tr *tracer
	if cfg.trace {
		// The in-process replay's operations again, serially over one more
		// connection: paired by position, they split a round trip into
		// engine time and the rest.
		remote := newWorker(nConns+1, replayStream, pop)
		if err := rig.dial(remote); err != nil {
			return nil, err
		}
		clients = append(clients, remote)
		rig.ln.on.Store(true)
		b0 := rig.ln.bytesIn.Load() + rig.ln.bytesOut.Load()
		f0 := rig.ln.framesIn.Load() + rig.ln.framesOut.Load()
		replay(remote)
		bytesPerOp = float64(rig.ln.bytesIn.Load()+rig.ln.bytesOut.Load()-b0) / replayOps
		framesPerOp = float64(rig.ln.framesIn.Load()+rig.ln.framesOut.Load()-f0) / replayOps
		diffs := make([]float64, replayOps)
		for i := range diffs {
			diffs[i] = remote.perOp[i] - local.perOp[i]
		}
		rt, eng, over = median(remote.perOp), median(local.perOp), median(diffs)

		tr = newTracer()
		rig.ln.tr.Store(tr)
		prof, err := startProfile()
		if err != nil {
			return nil, err
		}
		telapsed := window(workers, cfg.window(), tr, nil)
		if cpuShares, err = prof.stop(); err != nil {
			return nil, err
		}
		rig.ln.on.Store(false)
		traced, _ = wireMetrics(workers, telapsed)
		var tracedNs int64
		for _, w := range workers {
			tracedNs += w.tracedNs
		}
		sum = tr.summarize(time.Duration(tracedNs))
	}

	// State check with every write acknowledged; then a crash at the
	// log's durable watermark and the same check on what survived.
	stopErr := rig.stop()
	stopped = true
	if stopErr != nil {
		logf("server: %v", stopErr)
	}
	pre := heapRows(db, pop)
	_, okPre := checkState(clients, pop, pre, nil)
	res.check("before the crash every acknowledged write is visible and heap and indexes agree", okPre)
	wal := db.WAL()
	ws := wal.Stats()
	unforced := ws.Commits - ws.GroupSum
	rec, err := db.CrashRecover(wal.FlushedLSN(), cost.NewMeter(db.Model()))
	if err != nil {
		return nil, fmt.Errorf("crash recovery: %w", err)
	}
	lost, okPost := checkState(clients, pop, heapRows(db, pop), &pre)
	res.check("after recovery heap and indexes agree and each client lost at most a tail of its writes", okPost)
	res.check(fmt.Sprintf("every forced commit survives: %d acknowledged writes lost, %d commits unforced at the crash", lost, unforced), int64(lost) == unforced)
	det["recovery"] = map[string]any{"unforced_commits": unforced, "acked_lost": lost, "lost_txns": rec.Lost, "redone": rec.Redone, "undone": rec.Undone}
	for _, w := range clients {
		res.attempted += w.ops
		res.failed += w.failed
		if w.wrong > 0 {
			res.check(fmt.Sprintf("client %d: %d wrong answers", w.id, w.wrong), false)
		}
	}

	put := res.put
	if !cfg.trace {
		e2e["setup_s"], e2e["sim_ms"], e2e["mem_peak_mb"] = setupS, simPass, probe.mb
		res.putEndToEnd(e2e)
		res.detail = det
		return res, nil
	}

	passes := float64(windowOps) / passOps
	genS := genSeconds(wireSF)
	put("setup.gen_s", genS, "s")
	put("setup.load_s", setupS-genS, "s")
	parseUS, prepareUS, err := frontEndMicros(db.NewSession(), wireSQL[:])
	if err != nil {
		return nil, err
	}
	put("sqlparse.parse_us", parseUS, "us")
	put("engine.prepare_us", prepareUS, "us")
	st := db.Stats()
	put("engine.parse_hit_ratio", ratio(float64(st.ParseHits), float64(st.ParseStatements)), "ratio")
	for q := 1; q <= 17; q++ {
		put(fmt.Sprintf("engine.exec_ms.q%d", q), 0, "ms")
		put(fmt.Sprintf("r3.query_ms.q%d", q), 0, "ms")
	}
	put("r3.uf_ms", 0, "ms")
	put("engine.replans_per_pass", float64(after.eng.Replans-before.eng.Replans)/passes, "count")
	put("engine.selects_per_pass", float64(after.eng.Selects-before.eng.Selects)/passes, "count")
	put("engine.tuples_per_row", ratio(meterPass[3], float64(local.rowsRead)*passOps/replayOps), "count")
	for _, k := range []string{"scan", "join", "aggregate", "sort", "ship", "optimize"} {
		put("engine.sim_ms."+k, 0, "sim-ms")
	}
	hits, misses := float64(after.poolHits-before.poolHits), float64(after.poolMisses-before.poolMisses)
	put("storage.pool_hit_ratio", ratio(hits, hits+misses), "ratio")
	put("storage.seq_reads_per_pass", meterPass[0], "count")
	put("storage.rand_reads_per_pass", meterPass[1], "count")
	put("storage.readahead_per_pass", meterPass[2], "count")
	put("storage.cold_extra_sim_ms", 0, "sim-ms")
	put("storage.heap_bytes_per_live_byte", heapBytesPerLiveByte(db), "ratio")
	put("storage.wal_bytes_per_user_byte", ratio(float64(after.wal.Bytes-before.wal.Bytes), float64(windowBytes)), "ratio")
	put("storage.wal_fsyncs_per_commit", ratio(float64(after.wal.Fsyncs-before.wal.Fsyncs), float64(after.wal.Commits-before.wal.Commits)), "ratio")
	put("storage.wal_checkpoints_per_kop", float64(after.wal.Checkpoints-before.wal.Checkpoints)/passes, "count")
	put("storage.acked_unforced", float64(lost), "count")
	ixh, ixm := float64(after.ixHits-before.ixHits), float64(after.ixMisses-before.ixMisses)
	put("btree.index_cache_hit_ratio", ratio(ixh, ixh+ixm), "ratio")
	put("btree.rand_reads_per_lookup", ratio(float64((ix1.Misses-ix1.ScanBypass)-(ix0.Misses-ix0.ScanBypass)), localReads), "count")
	put("r3.interface_calls_per_pass", float64(after.eng.InterfaceCalls-before.eng.InterfaceCalls)/passes, "count")
	put("r3.rows_shipped_per_pass", float64(after.eng.RowsShipped-before.eng.RowsShipped)/passes, "count")
	put("r3.cursor_cache_hit_ratio", 0, "ratio")
	for _, k := range []string{"translate", "db", "client"} {
		put("r3.sim_ms."+k, 0, "sim-ms")
	}
	put("wire.roundtrip_us", rt, "us")
	put("wire.engine_us", eng, "us")
	put("wire.overhead_us", over, "us")
	put("wire.bytes_per_op", bytesPerOp, "B")
	put("wire.frames_per_op", framesPerOp, "count")
	goWindow(before.gc, after.gc, windowOps, put)
	putCPU(put, cpuShares)
	putTrace(put, sum, e2e["pass_ms"], traced["pass_ms"], 0)
	res.check("span self times and root spans reconcile", sum.reconciles())
	det["trace"] = sum
	det["traced"] = traced
	if err := tr.write(cfg.spansPath(), sum, map[string]any{"workload": cfg.workload, "seed": cfg.seed}); err != nil {
		return nil, err
	}
	res.detail = det
	return res, nil
}
