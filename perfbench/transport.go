package main

import (
	"bytes"
	"context"
	"io"
	"net"
	"net/http"
	"sync"
	"time"
)

// countingTransport sits under an api.Client and counts every HTTP
// attempt by outcome, so a 429 or 5xx that the client retries
// transparently still shows up as a failure. It also counts response
// body bytes and, when onDone is set, reports each attempt's timing.
type countingTransport struct {
	base http.RoundTripper
	// onDone, when non-nil, receives every attempt's request, start time,
	// end of body, and body size (traced runs).
	onDone func(req *http.Request, start, end time.Time, bytes int64)

	mu      sync.Mutex
	counts  transportCounts
	capture *bytes.Buffer // when set, response bodies are copied here
}

// transportCounts tallies attempts by outcome.
type transportCounts struct {
	Attempts  int   `json:"attempts"`
	OK        int   `json:"2xx"`
	Throttled int   `json:"429"`
	Server    int   `json:"5xx"`
	Other     int   `json:"other_4xx"`
	Errors    int   `json:"transport_errors"`
	Bytes     int64 `json:"response_bytes"`
}

// failures is every attempt that did not succeed.
func (c transportCounts) failures() int { return c.Throttled + c.Server + c.Other + c.Errors }

func (c transportCounts) sub(o transportCounts) transportCounts {
	return transportCounts{
		Attempts: c.Attempts - o.Attempts, OK: c.OK - o.OK, Throttled: c.Throttled - o.Throttled,
		Server: c.Server - o.Server, Other: c.Other - o.Other, Errors: c.Errors - o.Errors,
		Bytes: c.Bytes - o.Bytes,
	}
}

// newTransport returns a transport holding at most one connection per
// host: the benchmark's load is one closed-loop client on one connection.
func newTransport(onDone func(*http.Request, time.Time, time.Time, int64)) *countingTransport {
	base := http.DefaultTransport.(*http.Transport).Clone()
	base.MaxConnsPerHost = 1
	base.MaxIdleConnsPerHost = 1
	return &countingTransport{base: base, onDone: onDone}
}

// resolve makes the transport dial the mapped address for each named
// host:port, so servers can carry stable names whatever loopback port
// they were given.
func (t *countingTransport) resolve(hosts map[string]string) {
	var d net.Dialer
	t.base.(*http.Transport).DialContext = func(ctx context.Context, network, addr string) (net.Conn, error) {
		if real, ok := hosts[addr]; ok {
			addr = real
		}
		return d.DialContext(ctx, network, addr)
	}
}

func (t *countingTransport) snapshot() transportCounts {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.counts
}

// setCapture makes later responses copy their bodies into buf (nil
// stops capturing).
func (t *countingTransport) setCapture(buf *bytes.Buffer) {
	t.mu.Lock()
	t.capture = buf
	t.mu.Unlock()
}

func (t *countingTransport) close() { t.base.(*http.Transport).CloseIdleConnections() }

// RoundTrip implements http.RoundTripper.
func (t *countingTransport) RoundTrip(req *http.Request) (*http.Response, error) {
	start := time.Now()
	resp, err := t.base.RoundTrip(req)
	t.mu.Lock()
	capture := t.capture
	t.counts.Attempts++
	switch {
	case err != nil:
		t.counts.Errors++
	case resp.StatusCode >= 200 && resp.StatusCode < 300:
		t.counts.OK++
	case resp.StatusCode == http.StatusTooManyRequests:
		t.counts.Throttled++
	case resp.StatusCode >= 500:
		t.counts.Server++
	default:
		t.counts.Other++
	}
	t.mu.Unlock()
	if err != nil {
		return nil, err
	}
	resp.Body = &countingBody{ReadCloser: resp.Body, t: t, req: req, start: start, capture: capture}
	return resp, nil
}

// countingBody counts body bytes and reports the attempt once the body
// is closed (the point the client has consumed the whole response).
type countingBody struct {
	io.ReadCloser
	t       *countingTransport
	req     *http.Request
	start   time.Time
	capture *bytes.Buffer
	n       int64
	done    bool
}

func (b *countingBody) Read(p []byte) (int, error) {
	n, err := b.ReadCloser.Read(p)
	b.n += int64(n)
	if b.capture != nil {
		b.capture.Write(p[:n])
	}
	return n, err
}

func (b *countingBody) Close() error {
	err := b.ReadCloser.Close()
	if !b.done {
		b.done = true
		b.t.mu.Lock()
		b.t.counts.Bytes += b.n
		b.t.mu.Unlock()
		if b.t.onDone != nil {
			b.t.onDone(b.req, b.start, time.Now(), b.n)
		}
	}
	return err
}
