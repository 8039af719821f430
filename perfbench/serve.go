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
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"nodb"
	"nodb/internal/server"
)

// serve-ingest drives an in-process nodbd (internal/server) on loopback
// with the sidecar on: nproc keep-alive connections, each with its own
// session and prepared statements, send requests back to back for the
// whole window (a closed loop), so every request meets the same
// concurrency and the server runs at the throughput it sustains.
const (
	pointSQL  = "SELECT o_orderkey, o_custkey, o_totalprice, o_orderdate, o_orderpriority FROM orders WHERE o_orderkey = $1"
	rangeSQL  = "SELECT sum(l_extendedprice * l_discount) AS revenue FROM lineitem WHERE l_shipdate >= $1 AND l_shipdate < $2 AND l_discount BETWEEN $3 AND $4 AND l_quantity < $5"
	insertSQL = "INSERT INTO orders VALUES ($1, $2, $3, $4, $5, $6, $7, $8, $9)"
	countSQL  = "SELECT count(*) FROM orders"

	// Of every deckSize requests, deckInserts append one row to orders,
	// deckPoints look up one order by key and the rest are range
	// aggregates. Point lookups are the majority, so the median falls among
	// them rather than in the gap between the two read kinds. Inserted rows
	// take keys above every generated key and a 2099 order date, so no read
	// in the mix matches them and the oracle's answers stay valid.
	deckSize     = 40
	deckInserts  = 2
	deckPoints   = 26
	insertKeyMin = 100_000_000
	rangeParams  = 8 // distinct Q6-template bindings
)

// warmupSQL read every value of the columns the mix reads. The column
// cache keeps a column only for the rows a scan parsed, and a predicate
// limits those, so set-up scans without one.
var warmupSQL = []string{
	"SELECT count(*), sum(o_orderkey), sum(o_custkey), sum(o_totalprice), min(o_orderdate), min(o_orderpriority) FROM orders",
	"SELECT count(*), sum(l_extendedprice), sum(l_discount), sum(l_quantity), min(l_shipdate) FROM lineitem",
}

// mix is serve-ingest's request mix with its oracle answers.
type mix struct {
	orders  map[int64][]any // o_orderkey -> point-lookup row
	keys    []int64
	ranges  [][]any  // Q6-template bindings
	want    []answer // answers for ranges
	warmups []probe
	next    atomic.Int64 // appends drawn so far
}

func newMix(b *bench, rng *rand.Rand) (*mix, error) {
	pages := filepath.Join(b.cfg.work, "pages")
	o, err := newOracle(b.in, pages)
	if err != nil {
		return nil, err
	}
	defer o.close()
	all, err := o.answer("SELECT o_orderkey, o_custkey, o_totalprice, o_orderdate, o_orderpriority FROM orders ORDER BY o_orderkey")
	if err != nil {
		return nil, err
	}
	m := &mix{orders: make(map[int64][]any, len(all))}
	for _, row := range all {
		k := row[0].(int64)
		m.orders[k] = row
		m.keys = append(m.keys, k)
	}
	for i, sql := range warmupSQL {
		a, err := o.answer(sql)
		if err != nil {
			return nil, err
		}
		m.warmups = append(m.warmups, probe{name: fmt.Sprintf("warmup%d", i), sql: sql, want: a})
	}
	for i := 0; i < rangeParams; i++ {
		year := 1993 + rng.Intn(5)
		lo := float64(2+rng.Intn(7)) / 100
		args := []any{fmt.Sprintf("%d-01-01", year), fmt.Sprintf("%d-01-01", year+1),
			lo, float64(int(lo*100)+2) / 100, int64(24 + rng.Intn(2))}
		a, err := o.answer(rangeSQL, args...)
		if err != nil {
			return nil, err
		}
		m.ranges = append(m.ranges, args)
		m.want = append(m.want, a)
	}
	return m, nil
}

// request is one operation of the mix.
type request struct {
	kind string // "point", "range" or "insert"
	sql  string
	args []any
	want answer
}

// dealer is one connection's seeded request stream.
type dealer struct {
	m    *mix
	rng  *rand.Rand
	deck []int // the rest of the current shuffled deck
}

// draw picks the next request of the mix. Requests come in seeded
// shuffles of a fixed deck, so every connection sends exactly the same
// share of appends, point lookups and range aggregates; only their order
// and parameters depend on the seed.
func (d *dealer) draw() *request {
	m, rng := d.m, d.rng
	if len(d.deck) == 0 {
		d.deck = rng.Perm(deckSize)
	}
	card := d.deck[0]
	d.deck = d.deck[1:]
	switch {
	case card < deckInserts:
		k := insertKeyMin + m.next.Add(1)
		return &request{kind: "insert", sql: insertSQL, args: []any{k, int64(1), "O", 1.5,
			"2099-12-31", "5-LOW", "Clerk#000000001", int64(0), "perfbench append"}}
	case card < deckInserts+deckPoints:
		k := m.keys[rng.Intn(len(m.keys))]
		return &request{kind: "point", sql: pointSQL, args: []any{k}, want: answer{m.orders[k]}}
	default:
		i := rng.Intn(len(m.ranges))
		return &request{kind: "range", sql: rangeSQL, args: m.ranges[i], want: m.want[i]}
	}
}

// nodbd is an in-process internal/server listening on loopback.
type nodbd struct {
	srv  *server.Server
	hs   *http.Server
	done chan error
	url  string
}

func startServer(db *nodb.DB) (*nodbd, error) {
	srv, err := server.New(server.Config{DB: db, MaxConcurrent: runtime.NumCPU(),
		SlowLogf: func(string, ...any) {}})
	if err != nil {
		return nil, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		srv.Close()
		return nil, err
	}
	n := &nodbd{srv: srv, hs: &http.Server{Handler: srv}, done: make(chan error, 1),
		url: "http://" + ln.Addr().String()}
	go func() { n.done <- n.hs.Serve(ln) }()
	return n, nil
}

// stop shuts the listener down and waits for the serving goroutine.
func (n *nodbd) stop() error {
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	err := n.hs.Shutdown(ctx)
	<-n.done
	n.srv.Close()
	return err
}

// conn is one keep-alive client connection with its nodbd session.
type conn struct {
	tr      *http.Transport
	c       *http.Client
	url     string
	session string
}

func dial(url string) (*conn, error) {
	tr := &http.Transport{MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1, DisableCompression: true}
	cn := &conn{tr: tr, c: &http.Client{Transport: tr}, url: url}
	resp, err := cn.c.Post(url+"/session", "application/json", nil)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	var s struct{ Session string }
	if err := json.NewDecoder(resp.Body).Decode(&s); err != nil || s.Session == "" {
		return nil, fmt.Errorf("creating session: status %d: %v", resp.StatusCode, err)
	}
	cn.session = s.Session
	return cn, nil
}

func (cn *conn) close() {
	if req, err := http.NewRequest(http.MethodDelete, cn.url+"/session/"+cn.session, nil); err == nil {
		if resp, err := cn.c.Do(req); err == nil {
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
		}
	}
	cn.tr.CloseIdleConnections()
}

// do sends one request, checks the reply and returns its round trip time.
// A 429 or 503 from admission control counts in server.rejected.
func (b *bench) do(cn *conn, rq *request) time.Duration {
	traced := b.traceThis(rq.kind)
	root := "query"
	if rq.kind == "insert" {
		root = "insert"
	}
	var o *op
	url := cn.url + "/query"
	if traced {
		o = b.tr.begin(root, true)
		url += "?profile=1"
	}
	body, _ := json.Marshal(map[string]any{"sql": rq.sql, "args": rq.args, "session": cn.session})
	t0 := time.Now()
	i := o.start("http.request", 0)
	resp, err := cn.c.Post(url, "application/json", bytes.NewReader(body))
	var raw []byte
	if err == nil {
		raw, err = io.ReadAll(resp.Body)
		resp.Body.Close()
	}
	o.end(i)
	rtt := time.Since(t0)
	b.attempted.Add(1)
	if err != nil {
		b.fail("%s: %v", rq.kind, err)
		o.finish(nil)
		return rtt
	}
	if resp.StatusCode != http.StatusOK {
		b.fail("%s: status %d: %s", rq.kind, resp.StatusCode, bytes.TrimSpace(raw))
		o.finish(nil)
		if resp.StatusCode == http.StatusTooManyRequests || resp.StatusCode == http.StatusServiceUnavailable {
			b.rejected.Add(1)
		}
		return rtt
	}
	rep, err := parseReply(raw, rq.kind == "insert")
	if err == nil && rq.kind == "insert" && rep.affected != 1 {
		err = fmt.Errorf("inserted %d rows, want 1", rep.affected)
	}
	if err == nil && rq.kind != "insert" {
		err = compare(rep.rows, rq.want)
	}
	if err != nil {
		b.fail("%s: %v", rq.kind, err)
	}
	o.finish(rep.profile)
	if b.tr != nil {
		b.lay.latency(rq.kind, traced, rtt)
	}
	if traced {
		b.lay.serverSample(rtt, rep.elapsedMS, int64(len(raw)-rep.profileBytes), int64(len(rep.rows)))
		b.lay.profile(rep.profile)
	}
	return rtt
}

// reply is a parsed /query response.
type reply struct {
	rows      answer
	affected  int64
	elapsedMS float64
	profile   *nodb.Profile
	// profileBytes is the length of the ?profile=1 line, which only
	// traced requests carry.
	profileBytes int
}

// parseReply reads nodbd's NDJSON stream (header, one array per row,
// trailer or error line, optional profile line) or an INSERT's JSON body.
func parseReply(raw []byte, insert bool) (reply, error) {
	var rep reply
	if insert {
		var r struct {
			RowsAffected int64   `json:"rows_affected"`
			ElapsedMS    float64 `json:"elapsed_ms"`
		}
		err := json.Unmarshal(raw, &r)
		rep.affected, rep.elapsedMS = r.RowsAffected, r.ElapsedMS
		return rep, err
	}
	sc := bufio.NewScanner(bytes.NewReader(raw))
	sc.Buffer(make([]byte, 64<<10), 16<<20)
	header := true
	done := false
	for sc.Scan() {
		line := sc.Bytes()
		if len(line) == 0 {
			continue
		}
		if header {
			header = false
			continue
		}
		if line[0] == '[' {
			dec := json.NewDecoder(bytes.NewReader(line))
			dec.UseNumber()
			var row []any
			if err := dec.Decode(&row); err != nil {
				return rep, err
			}
			for i, v := range row {
				if n, ok := v.(json.Number); ok {
					row[i] = fromNumber(n)
				}
			}
			rep.rows = append(rep.rows, row)
			continue
		}
		var tail struct {
			Rows      *int64          `json:"rows"`
			ElapsedMS float64         `json:"elapsed_ms"`
			Error     json.RawMessage `json:"error"`
			Profile   *nodb.Profile   `json:"profile"`
		}
		if err := json.Unmarshal(line, &tail); err != nil {
			return rep, err
		}
		switch {
		case tail.Error != nil:
			return rep, fmt.Errorf("error trailer: %s", tail.Error)
		case tail.Profile != nil:
			rep.profile = tail.Profile
			rep.profileBytes = len(line) + 1
		case tail.Rows != nil:
			rep.elapsedMS = tail.ElapsedMS
			done = true
		}
	}
	if !done {
		return rep, fmt.Errorf("stream ended without a trailer")
	}
	return rep, sc.Err()
}

func fromNumber(n json.Number) any {
	if i, err := n.Int64(); err == nil {
		return i
	}
	f, _ := n.Float64() // nodbd writes only valid JSON numbers
	return f
}

// runServe is serve-ingest. Set-up warms the DB with a cold episode over
// the warm-up scans, checkpoints the sidecar, starts nodbd and opens the
// connections; the window then runs the closed loop.
func runServe(b *bench) error {
	rng := rand.New(rand.NewSource(b.cfg.seed))
	m, err := newMix(b, rng)
	if err != nil {
		return err
	}
	qs := m.warmups
	opts := nodb.Options{Sidecar: nodb.SidecarOptions{Enable: true, Dir: filepath.Join(b.cfg.work, "sidecar")}}
	var srv *nodbd
	var conns []*conn
	db, _, err := b.setUp(opts, qs, 2, nil, func(db *nodb.DB, keep bool) error {
		o := b.tr.begin("checkpoint", false)
		err := db.Checkpoint(context.Background())
		o.finish(nil)
		if err != nil {
			return err
		}
		if srv, err = startServer(db); err != nil {
			return err
		}
		conns = conns[:0]
		for i := 0; i < b.wl.clients(); i++ {
			cn, err := dial(srv.url)
			if err != nil {
				return err
			}
			conns = append(conns, cn)
		}
		if keep {
			return nil
		}
		return stopAll(srv, conns)
	})
	if err != nil {
		return err
	}
	defer db.Close()
	stopped := false
	defer func() {
		if !stopped {
			stopAll(srv, conns)
		}
	}()

	ordersPath := filepath.Join(b.in.dir, "orders.tbl")
	size0, err := fileSize(ordersPath)
	if err != nil {
		return err
	}
	// Start the window with no writeback pending from set-up or an earlier
	// run, so the sidecar's fsyncs wait only for this run's writes.
	syscall.Sync()
	b.inRun.Store(true)
	w := &b.win
	s0 := db.Stats()
	w.start = readRuntime()
	t0 := time.Now()
	deadline := t0.Add(time.Duration(b.cfg.seconds) * time.Second)
	per := make([]map[string]sample, len(conns))
	var wg sync.WaitGroup
	for c, cn := range conns {
		per[c] = map[string]sample{}
		wg.Add(1)
		go func(c int, cn *conn) {
			defer wg.Done()
			d := &dealer{m: m, rng: rand.New(rand.NewSource(b.cfg.seed*7919 + int64(c)))}
			for time.Now().Before(deadline) {
				rq := d.draw()
				lat := per[c][rq.kind]
				lat.add(b.do(cn, rq))
				per[c][rq.kind] = lat
			}
		}(c, cn)
	}
	wg.Wait()
	elapsed := time.Since(t0)
	w.end = readRuntime()
	s1 := db.Stats()
	addStats(&w.statsSum, s0, s1)
	size1, err := fileSize(ordersPath)
	if err != nil {
		return err
	}
	w.appendedBytes = size1 - size0

	var lats sample
	kinds := map[string]sample{}
	for _, p := range per {
		for k, l := range p {
			lats = append(lats, l...)
			kinds[k] = append(kinds[k], l...)
		}
	}
	// Each kind's median goes to the detail line only: it shows which kind
	// moved when latency_p50_ms does.
	for k, l := range kinds {
		b.timing(b.e2e, k+"_p50_ms", l)
	}
	w.ops = int64(len(lats))
	b.e2e["qps"] = float64(len(lats)) / elapsed.Seconds()
	b.latencyMetrics(lats)

	// Every accepted append is visible, and nothing else changed orders.
	inserted := m.next.Load()
	rows, err := db.QueryContext(context.Background(), countSQL)
	if err != nil {
		return err
	}
	got, err := collect(rows)
	if err != nil {
		return err
	}
	if wantN := int64(len(m.keys)) + inserted; len(got) != 1 || got[0][0] != wantN {
		b.invariant("orders has %v rows after the run, want %d (%d generated + %d appended)",
			got, wantN, len(m.keys), inserted)
	}
	// Memory is read with the server gone and no checkpoint in flight.
	stopped = true
	if err := stopAll(srv, conns); err != nil {
		return err
	}
	if err := db.Checkpoint(context.Background()); err != nil {
		return err
	}
	b.endMetrics(db)
	return nil
}

func stopAll(srv *nodbd, conns []*conn) error {
	for _, cn := range conns {
		cn.close()
	}
	return srv.stop()
}

func fileSize(path string) (int64, error) {
	fi, err := os.Stat(path)
	if err != nil {
		return 0, err
	}
	return fi.Size(), nil
}
