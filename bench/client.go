package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"time"
)

// hit is one entry of a /query or /neighbors body.
type hit struct {
	User       string  `json:"user"`
	Similarity float64 `json:"similarity"`
}

// target is one HTTP endpoint the benchmark drives: a real knnserver (or
// router) process over loopback, or an in-process handler behind the same
// request code.
type target struct {
	// pool holds the keep-alive connections to a real process; nil for an
	// in-process target.
	pool chan *wireConn
	addr string
	hc   *http.Client // in-process only
}

// newTarget reaches a real process at base ("http://host:port") through at
// most conns keep-alive connections. The client is deliberately thin — one
// write and one blocking read per request on a connection the caller owns
// for the duration — because net/http's client hands every request through
// two extra goroutines, and on a machine this small the generator's own
// scheduling would be a third of what it measures.
func newTarget(base string, conns int) *target {
	t := &target{pool: make(chan *wireConn, conns), addr: strings.TrimPrefix(base, "http://")}
	for i := 0; i < conns; i++ {
		t.pool <- &wireConn{}
	}
	return t
}

// wireConn is one keep-alive HTTP/1.1 connection, dialled on first use.
type wireConn struct {
	c  net.Conn
	br *bufio.Reader
}

const requestTimeout = 60 * time.Second

func (w *wireConn) roundTrip(addr, method, path string, body []byte) (reply, error) {
	if w.c == nil {
		c, err := net.DialTimeout("tcp", addr, 5*time.Second)
		if err != nil {
			return reply{}, err
		}
		w.c, w.br = c, bufio.NewReader(c)
	}
	w.c.SetDeadline(time.Now().Add(requestTimeout))
	req := make([]byte, 0, 160+len(body))
	req = append(req, method...)
	req = append(req, ' ')
	req = append(req, path...)
	req = append(req, " HTTP/1.1\r\nHost: "...)
	req = append(req, addr...)
	req = append(req, "\r\nContent-Type: application/octet-stream\r\nContent-Length: "...)
	req = strconv.AppendInt(req, int64(len(body)), 10)
	req = append(req, "\r\n\r\n"...)
	req = append(req, body...)
	if _, err := w.c.Write(req); err != nil {
		w.drop()
		return reply{}, err
	}
	resp, err := http.ReadResponse(w.br, nil)
	if err != nil {
		w.drop()
		return reply{}, err
	}
	raw, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil || resp.Close {
		w.drop()
	}
	if err != nil {
		return reply{}, err
	}
	return reply{Status: resp.StatusCode, Header: resp.Header, Body: raw}, nil
}

func (w *wireConn) drop() {
	if w.c != nil {
		w.c.Close()
		w.c = nil
	}
}

// handlerTransport serves requests by calling a handler directly: no
// socket, no goroutine hop. onServe, when set, receives the time spent
// inside ServeHTTP alone — the handler's own cost, without the client-side
// request construction around it.
type handlerTransport struct {
	h       http.Handler
	onServe func(d time.Duration)
}

func (t *handlerTransport) RoundTrip(req *http.Request) (*http.Response, error) {
	rec := httptest.NewRecorder()
	start := time.Now()
	t.h.ServeHTTP(rec, req)
	if t.onServe != nil {
		t.onServe(time.Since(start))
	}
	return rec.Result(), nil
}

func newHandlerTarget(h http.Handler, onServe func(d time.Duration)) *target {
	return &target{hc: &http.Client{Transport: &handlerTransport{h: h, onServe: onServe}}}
}

// close drops the target's connections.
func (t *target) close() {
	for t.pool != nil && len(t.pool) > 0 {
		(<-t.pool).drop()
	}
}

// reply is a drained response.
type reply struct {
	Status int
	Header http.Header
	Body   []byte
}

func (t *target) do(method, path string, body []byte) (reply, error) {
	if t.pool != nil {
		w := <-t.pool
		rep, err := w.roundTrip(t.addr, method, path, body)
		t.pool <- w
		return rep, err
	}
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	req, err := http.NewRequest(method, "http://inproc"+path, rd)
	if err != nil {
		return reply{}, err
	}
	resp, err := t.hc.Do(req)
	if err != nil {
		return reply{}, err
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		return reply{}, err
	}
	return reply{Status: resp.StatusCode, Header: resp.Header, Body: raw}, nil
}

func (t *target) put(id string, body []byte) (reply, error) {
	return t.do(http.MethodPut, "/users/"+id+"/fingerprint", body)
}

func (t *target) del(id string) (reply, error) {
	return t.do(http.MethodDelete, "/users/"+id+"/fingerprint", nil)
}

func (t *target) query(body []byte, mode string, k int) (reply, error) {
	return t.do(http.MethodPost, fmt.Sprintf("/query?k=%d&mode=%s", k, mode), body)
}

func (t *target) neighbors(id string) (reply, error) {
	return t.do(http.MethodGet, "/users/"+id+"/neighbors", nil)
}

func (r reply) hits() ([]hit, error) {
	var hs []hit
	if err := json.Unmarshal(r.Body, &hs); err != nil {
		return nil, fmt.Errorf("decoding result body: %w", err)
	}
	return hs, nil
}

func (t *target) getJSON(path string, v any) error {
	r, err := t.do(http.MethodGet, path, nil)
	if err != nil {
		return err
	}
	if r.Status != http.StatusOK {
		return fmt.Errorf("GET %s: status %d: %s", path, r.Status, bytes.TrimSpace(r.Body))
	}
	return json.Unmarshal(r.Body, v)
}

// buildGraph POSTs a cluster build and returns its wall time as the client
// saw it plus the server-reported duration_ms values (one per shard behind
// a router).
func (t *target) buildGraph(k int) (wall time.Duration, reported []float64, err error) {
	start := time.Now()
	r, err := t.do(http.MethodPost, fmt.Sprintf("/graph/build?k=%d&algo=cluster", k), nil)
	wall = time.Since(start)
	if err != nil {
		return wall, nil, err
	}
	if r.Status != http.StatusOK {
		return wall, nil, fmt.Errorf("POST /graph/build: status %d: %s", r.Status, bytes.TrimSpace(r.Body))
	}
	type single struct {
		Users      int     `json:"users"`
		DurationMS float64 `json:"duration_ms"`
	}
	var routed struct {
		Shards map[string]single `json:"shards"`
		Built  int               `json:"built"`
		Total  int               `json:"total"`
	}
	if err := json.Unmarshal(r.Body, &routed); err == nil && routed.Total > 0 {
		if routed.Built != routed.Total {
			return wall, nil, fmt.Errorf("build reached %d of %d shards: %s", routed.Built, routed.Total, r.Body)
		}
		for _, s := range routed.Shards {
			reported = append(reported, s.DurationMS)
		}
		return wall, reported, nil
	}
	var one single
	if err := json.Unmarshal(r.Body, &one); err != nil {
		return wall, nil, fmt.Errorf("decoding build response: %w", err)
	}
	return wall, []float64{one.DurationMS}, nil
}

// obsSnapshot is the part of the program's /metrics JSON the benchmark
// reads (internal/obs's snapshot schema).
type obsSnapshot struct {
	Counters   map[string]int64 `json:"counters"`
	Gauges     map[string]int64 `json:"gauges"`
	Histograms map[string]struct {
		Count int64   `json:"count"`
		Sum   float64 `json:"sum"`
	} `json:"histograms"`
}

func (t *target) metrics() (obsSnapshot, error) {
	var s obsSnapshot
	err := t.getJSON("/metrics", &s)
	return s, err
}

// waitFor polls cond every few milliseconds until it holds or the
// deadline passes.
func waitFor(within time.Duration, what string, cond func() bool) error {
	deadline := time.Now().Add(within)
	for !cond() {
		if time.Now().After(deadline) {
			return fmt.Errorf("timed out after %s waiting for %s", within, what)
		}
		time.Sleep(5 * time.Millisecond)
	}
	return nil
}
