package server

import (
	"context"
	"database/sql"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strings"
	"time"

	"nodb"
	"nodb/internal/qtrace"
)

// maxRequestBody bounds the /query request body; SQL text and bindings
// comfortably fit, and a runaway client cannot balloon the decoder.
const maxRequestBody = 1 << 20

// queryRequest is the POST /query body.
type queryRequest struct {
	SQL       string         `json:"sql"`
	Args      []any          `json:"args"`
	Named     map[string]any `json:"named"`
	Session   string         `json:"session"`
	TimeoutMS int64          `json:"timeout_ms"`
	MaxRows   int64          `json:"max_rows"`
}

// trailer is the last NDJSON line of a successful stream.
type trailer struct {
	Rows      int64   `json:"rows"`
	Truncated bool    `json:"truncated,omitempty"`
	ElapsedMS float64 `json:"elapsed_ms"`
}

// errKind maps an error onto the typed-error taxonomy exported on the
// nodb_query_errors_total metric and in error bodies.
func errKind(err error) string {
	switch {
	case errors.Is(err, context.DeadlineExceeded):
		return "deadline"
	case errors.Is(err, context.Canceled):
		return "canceled"
	case errors.Is(err, nodb.ErrFileChanged):
		return "file_changed"
	case errors.Is(err, nodb.ErrFileVanished):
		return "file_vanished"
	case errors.Is(err, nodb.ErrCorruptAux):
		return "corrupt_aux"
	case errors.Is(err, nodb.ErrRetriesExhausted):
		return "retries_exhausted"
	case errors.Is(err, errUnknownSession):
		return "unknown_session"
	default:
		return "invalid"
	}
}

// outcomeFor buckets an error kind into the nodb_queries_total outcome
// label.
func outcomeFor(kind string) string {
	switch kind {
	case "deadline":
		return "deadline"
	case "canceled":
		return "canceled"
	case "invalid", "unknown_session":
		return "client_error"
	default:
		return "engine_error"
	}
}

// statusFor maps a pre-stream error kind onto an HTTP status: client
// mistakes are 4xx, engine faults 5xx, deadlines 504.
func statusFor(kind string) int {
	switch kind {
	case "invalid":
		return http.StatusBadRequest
	case "unknown_session":
		return http.StatusNotFound
	case "deadline":
		return http.StatusGatewayTimeout
	case "canceled":
		return 499 // client closed request (nginx convention)
	default:
		return http.StatusInternalServerError
	}
}

// convertJSONArg turns a decoded JSON value into an engine binding.
// json.Number (the decoder runs with UseNumber) becomes int64 when
// integral, float64 otherwise, so "WHERE id = $1" with 42 binds an Int.
func convertJSONArg(v any) (any, error) {
	switch n := v.(type) {
	case json.Number:
		if i, err := n.Int64(); err == nil {
			return i, nil
		}
		f, err := n.Float64()
		if err != nil {
			return nil, fmt.Errorf("server: bad numeric argument %q", n.String())
		}
		return f, nil
	case nil, bool, string:
		return v, nil
	default:
		return nil, fmt.Errorf("server: unsupported argument type %T (want number, string, bool or null)", v)
	}
}

func (s *Server) handleQuery(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		w.Header().Set("Allow", "POST")
		writeError(w, http.StatusMethodNotAllowed, "method_not_allowed",
			fmt.Errorf("server: /query wants POST"))
		return
	}
	dec := json.NewDecoder(io.LimitReader(r.Body, maxRequestBody))
	dec.UseNumber()
	var req queryRequest
	if err := dec.Decode(&req); err != nil {
		s.failEarly(w, fmt.Errorf("server: bad request body: %w", err))
		return
	}
	if req.SQL == "" {
		s.failEarly(w, fmt.Errorf("server: request must set sql"))
		return
	}

	args := make([]any, 0, len(req.Args)+len(req.Named))
	for i, a := range req.Args {
		v, err := convertJSONArg(a)
		if err != nil {
			s.failEarly(w, fmt.Errorf("argument %d: %w", i+1, err))
			return
		}
		args = append(args, v)
	}
	for name, a := range req.Named {
		v, err := convertJSONArg(a)
		if err != nil {
			s.failEarly(w, fmt.Errorf("argument :%s: %w", name, err))
			return
		}
		args = append(args, sql.Named(name, v))
	}

	// Every query runs under an execution profile: it feeds the
	// /debug/queries live view and ring, the slow-query log, and — when
	// the request asks with ?profile=1 — a trailer on the NDJSON stream.
	prof := qtrace.New(req.SQL)
	s.insp.Start(prof)
	recorded := false
	record := func() {
		if recorded {
			return
		}
		recorded = true
		snap := s.insp.Finish(prof)
		if s.cfg.SlowQuery > 0 && time.Duration(snap.WallNS) >= s.cfg.SlowQuery {
			s.cfg.SlowLogf("slow query (%.1fms): %s\n\t%s",
				float64(snap.WallNS)/1e6, snap.SQL,
				strings.Join(snap.RenderText(true), "\n\t"))
		}
	}
	defer record()
	wantProfile := r.URL.Query().Get("profile") == "1"

	// Admission: bounded slots, bounded queue, typed rejections. Wait time
	// lands in the profile's queue phase, so the server's account and the
	// engine's reconcile: queue + plan + bind + execute ≈ wall.
	waitStart := time.Now()
	endQueue := prof.Enter(qtrace.PhaseQueue)
	release, err := s.adm.acquire(r.Context())
	endQueue()
	s.m.queueWait.Observe(time.Since(waitStart).Seconds())
	if err != nil {
		prof.SetError(err.Error())
		switch {
		case errors.Is(err, errQueueFull):
			s.m.rejected.With("queue_full").Inc()
			w.Header().Set("Retry-After", "1")
			writeError(w, http.StatusTooManyRequests, "queue_full", err)
		case errors.Is(err, errQueueTimeout):
			s.m.rejected.With("queue_timeout").Inc()
			w.Header().Set("Retry-After", "1")
			writeError(w, http.StatusServiceUnavailable, "queue_timeout", err)
		case errors.Is(err, errDraining):
			s.m.rejected.With("draining").Inc()
			writeError(w, http.StatusServiceUnavailable, "draining", err)
		default: // client went away while queued
			s.m.queries.With("canceled").Inc()
			writeError(w, 499, "canceled", err)
		}
		return
	}
	defer release()

	// Per-query deadline, clamped to the server maximum.
	timeout := s.cfg.DefaultTimeout
	if req.TimeoutMS > 0 {
		timeout = time.Duration(req.TimeoutMS) * time.Millisecond
	}
	if timeout > s.cfg.MaxTimeout {
		timeout = s.cfg.MaxTimeout
	}
	ctx, cancel := context.WithTimeout(r.Context(), timeout)
	defer cancel()
	ctx = qtrace.NewContext(ctx, prof)

	maxRows := s.cfg.DefaultMaxRows
	if req.MaxRows > 0 && (maxRows == 0 || req.MaxRows < maxRows) {
		maxRows = req.MaxRows
	}

	start := time.Now()
	finish := func(outcome string, err error) {
		s.m.queryDuration.Observe(time.Since(start).Seconds())
		s.m.queries.With(outcome).Inc()
		if err != nil {
			s.m.queryErrors.With(errKind(err)).Inc()
		}
	}

	// Resolve the statement: through the session's reuse cache when the
	// request names one, directly otherwise.
	var stmt *nodb.Stmt
	if req.Session != "" {
		var sess *session
		if sess, err = s.sessions.lookup(req.Session); err == nil {
			stmt, err = s.sessions.stmt(sess, req.SQL)
		}
	} else {
		stmt, err = s.db.PrepareContext(ctx, req.SQL)
	}
	if err != nil {
		kind := errKind(err)
		finish(outcomeFor(kind), err)
		writeError(w, statusFor(kind), kind, err)
		return
	}

	// Non-SELECT statements execute to a row count, no stream.
	if !stmt.Select() {
		n, err := stmt.ExecContext(ctx, args...)
		if err != nil {
			kind := errKind(err)
			finish(outcomeFor(kind), err)
			writeError(w, statusFor(kind), kind, err)
			return
		}
		finish("ok", nil)
		writeJSON(w, http.StatusOK, map[string]any{
			"rows_affected": n,
			"elapsed_ms":    float64(time.Since(start).Microseconds()) / 1000,
		})
		return
	}

	rows, err := stmt.QueryContext(ctx, args...)
	if err != nil {
		kind := errKind(err)
		finish(outcomeFor(kind), err)
		writeError(w, statusFor(kind), kind, err)
		return
	}
	defer rows.Close()

	s.streamRows(ctx, cancel, w, rows, maxRows, start, finish, record, prof, wantProfile)
}

// streamRows writes the NDJSON response: a header line with the result
// schema, one JSON array per row, and a trailer with totals. Budgets stop
// the stream by cancelling the query context, so the engine's cursor
// tears down the same way a client disconnect would. The response flushes
// once flushBytes have accumulated, and the query is recorded as finished
// (record: the /debug/queries ring and the slow-query log) before the
// trailer is written — so a client that has read the whole response, or
// any response short enough never to flush early, finds it recorded.
func (s *Server) streamRows(ctx context.Context, cancel context.CancelFunc, w http.ResponseWriter,
	rows *nodb.Rows, maxRows int64, start time.Time, finish func(string, error), record func(),
	prof *qtrace.Profile, wantProfile bool) {

	w.Header().Set("Content-Type", "application/x-ndjson")
	flusher, _ := w.(http.Flusher)
	cw := &countingWriter{w: w}
	enc := json.NewEncoder(cw)

	cols := rows.Columns()
	header := struct {
		Columns []columnJSON `json:"columns"`
	}{Columns: make([]columnJSON, len(cols))}
	for i, c := range cols {
		header.Columns[i] = columnJSON{Name: c.Name, Type: c.Type.String()}
	}
	if err := enc.Encode(header); err != nil {
		finish("canceled", err)
		return
	}

	var n, flushed int64
	truncated := false
	rowBuf := make([]any, len(cols))
	for rows.Next() {
		vals := rows.Values()
		for i, v := range vals {
			rowBuf[i] = jsonValue(v)
		}
		if err := enc.Encode(rowBuf); err != nil {
			// Client went away mid-stream; the deferred Close tears down.
			finish("canceled", err)
			return
		}
		n++
		if n%64 == 0 {
			if flusher != nil && cw.n-flushed >= flushBytes {
				flusher.Flush()
				flushed = cw.n
			}
			if ctx.Err() != nil {
				break // deadline/cancel; the cause surfaces via rows.Err below
			}
		}
		if maxRows > 0 && n >= maxRows {
			truncated = true
			cancel() // budget exhausted: cancel the query like a deadline would
			break
		}
		if s.cfg.MaxResponseBytes > 0 && cw.n >= s.cfg.MaxResponseBytes {
			truncated = true
			cancel()
			break
		}
	}

	err := rows.Err()
	if err == nil {
		err = ctx.Err() // the explicit break above may beat the cursor to it
	}
	if truncated {
		err = nil // budget cut is a success with truncated=true, not an error
	}
	s.m.rowsReturned.Add(n)
	// Close the cursor so the execute phase and row counters are final,
	// then record the query before the trailer leaves.
	rows.Close()
	record()
	if err != nil {
		kind := errKind(err)
		finish(outcomeFor(kind), err)
		_ = enc.Encode(errorBody{Error: errorDetail{Kind: kind, Message: err.Error()}})
	} else {
		finish("ok", nil)
		_ = enc.Encode(trailer{
			Rows:      n,
			Truncated: truncated,
			ElapsedMS: float64(time.Since(start).Microseconds()) / 1000,
		})
	}
	if wantProfile {
		// Append the profile as one extra NDJSON line.
		_ = enc.Encode(map[string]any{"profile": prof.Snapshot()})
	}
	s.m.bytesReturned.Add(cw.n)
	if flusher != nil {
		flusher.Flush()
	}
}

// flushBytes is how much NDJSON the stream buffers between flushes: large
// results still stream, small ones leave in one piece after the query is
// recorded.
const flushBytes = 4 << 10

// countingWriter tracks response-body bytes for the byte budget and the
// bytes-returned counter.
type countingWriter struct {
	w io.Writer
	n int64
}

func (c *countingWriter) Write(p []byte) (int, error) {
	n, err := c.w.Write(p)
	c.n += int64(n)
	return n, err
}

// jsonValue maps a typed engine value onto its JSON representation; dates
// render as "2006-01-02" strings.
func jsonValue(v nodb.Value) any {
	if v.Null() {
		return nil
	}
	switch v.T {
	case nodb.Int:
		return v.Int()
	case nodb.Float:
		return v.Float()
	case nodb.Bool:
		return v.Bool()
	case nodb.Date:
		return v.DateString()
	default:
		return v.Text()
	}
}

// failEarly reports a request that never reached admission (malformed
// body, missing SQL, bad bindings).
func (s *Server) failEarly(w http.ResponseWriter, err error) {
	s.m.queries.With("client_error").Inc()
	s.m.queryErrors.With("invalid").Inc()
	writeError(w, http.StatusBadRequest, "invalid", err)
}
