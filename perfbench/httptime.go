package main

import (
	"io"
	"net/http"
	"sync"
	"time"
)

// rpcClock times every scheduler RPC the benchmark's process makes, from
// the moment the request is sent until the client has read or closed
// the reply body. Installed as http.DefaultTransport it sees the
// volunteer daemons' requests without any change to the daemons:
// boinc.Client builds its http.Client without a transport of its own.
type rpcClock struct {
	base http.RoundTripper

	mu sync.Mutex
	ms []float64
}

// RoundTrip implements http.RoundTripper.
func (c *rpcClock) RoundTrip(req *http.Request) (*http.Response, error) {
	if req.URL.Path != "/scheduler" {
		return c.base.RoundTrip(req)
	}
	start := time.Now()
	resp, err := c.base.RoundTrip(req)
	if err != nil {
		return nil, err
	}
	resp.Body = &timedBody{ReadCloser: resp.Body, done: func() {
		d := time.Since(start)
		c.mu.Lock()
		c.ms = append(c.ms, float64(d)/1e6)
		c.mu.Unlock()
	}}
	return resp, nil
}

// take returns and clears the samples, in ms.
func (c *rpcClock) take() []float64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	ms := c.ms
	c.ms = nil
	return ms
}

// timedBody calls done once, at EOF or Close, whichever comes first.
type timedBody struct {
	io.ReadCloser
	once sync.Once
	done func()
}

func (b *timedBody) Read(p []byte) (int, error) {
	n, err := b.ReadCloser.Read(p)
	if err == io.EOF {
		b.once.Do(b.done)
	}
	return n, err
}

func (b *timedBody) Close() error {
	b.once.Do(b.done)
	return b.ReadCloser.Close()
}
