package server

import (
	"bufio"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"sync"
	"time"
)

// Client is a line-JSON protocol client. It supports pipelining: Query may
// be called from concurrent goroutines over one connection, and responses
// are matched to callers by request ID. Safe for concurrent use.
type Client struct {
	conn net.Conn

	wmu sync.Mutex
	enc *json.Encoder

	mu      sync.Mutex
	nextID  int64
	pending map[int64]chan Response
	readErr error
	closed  bool

	// done is closed when readLoop exits; Close waits on it so the reader
	// goroutine is joined before Close returns.
	done chan struct{}
}

// Dial connects to a server's TCP address.
func Dial(addr string) (*Client, error) {
	conn, err := net.DialTimeout("tcp", addr, 10*time.Second)
	if err != nil {
		return nil, err
	}
	c := &Client{
		conn:    conn,
		enc:     json.NewEncoder(conn),
		pending: make(map[int64]chan Response),
		done:    make(chan struct{}),
	}
	go c.readLoop()
	return c, nil
}

// readLoop distributes responses to their waiting callers until the
// connection closes, then fails every pending call.
func (c *Client) readLoop() {
	defer close(c.done)
	rd := bufio.NewReaderSize(c.conn, 64<<10)
	var line []byte
	var err error
	for {
		if line, err = readLine(rd, line); err != nil {
			break
		}
		var resp Response
		if err := json.Unmarshal(line, &resp); err != nil {
			continue
		}
		c.mu.Lock()
		ch := c.pending[resp.ID]
		delete(c.pending, resp.ID)
		c.mu.Unlock()
		if ch != nil {
			ch <- resp //poplint:allow blockingcancel pending channels are buffered (cap 1) and receive exactly one response per ID, so this send never blocks
		}
	}
	if errors.Is(err, io.EOF) {
		err = errors.New("connection closed")
	}
	c.mu.Lock()
	c.readErr = err
	for id, ch := range c.pending {
		delete(c.pending, id)
		close(ch)
	}
	c.mu.Unlock()
}

// Do sends one request and waits for its response. The request's ID is
// assigned by the client.
func (c *Client) Do(req Request) (Response, error) {
	c.mu.Lock()
	if c.readErr != nil {
		err := c.readErr
		c.mu.Unlock()
		return Response{}, err
	}
	c.nextID++
	req.ID = c.nextID
	ch := make(chan Response, 1)
	c.pending[req.ID] = ch
	c.mu.Unlock()

	c.wmu.Lock()
	err := c.enc.Encode(req)
	c.wmu.Unlock()
	if err != nil {
		c.mu.Lock()
		delete(c.pending, req.ID)
		c.mu.Unlock()
		return Response{}, err
	}

	resp, ok := <-ch
	if !ok {
		c.mu.Lock()
		err := c.readErr
		c.mu.Unlock()
		if err == nil {
			err = errors.New("connection closed")
		}
		return Response{}, err
	}
	return resp, nil
}

// Query executes SQL with optional parameter bindings. A Response with
// OK=false is returned as-is (not as an error) so callers can inspect the
// typed Code.
func (c *Client) Query(sql string, params ...ParamValue) (Response, error) {
	return c.Do(Request{Op: OpQuery, SQL: sql, Params: params})
}

// QueryPlanner is Query with an explicit planner-strategy name (see
// pop.Strategies); empty runs the server default.
func (c *Client) QueryPlanner(sql, planner string, params ...ParamValue) (Response, error) {
	return c.Do(Request{Op: OpQuery, SQL: sql, Params: params, Planner: planner})
}

// Ping round-trips the connection.
func (c *Client) Ping() error {
	resp, err := c.Do(Request{Op: OpPing})
	if err != nil {
		return err
	}
	if !resp.OK {
		return fmt.Errorf("ping failed: %s", resp.Error)
	}
	return nil
}

// MetricsText fetches the server's cumulative counters as rendered text.
func (c *Client) MetricsText() (string, error) {
	resp, err := c.Do(Request{Op: OpMetrics})
	if err != nil {
		return "", err
	}
	if !resp.OK {
		return "", fmt.Errorf("metrics failed: %s", resp.Error)
	}
	return resp.Text, nil
}

// Float wraps a float parameter binding.
func Float(v float64) ParamValue { return ParamValue{Float: &v} }

// Int wraps an integer parameter binding.
func Int(v int64) ParamValue { return ParamValue{Int: &v} }

// Str wraps a string parameter binding.
func Str(v string) ParamValue { return ParamValue{Str: &v} }

// Close tells the server to close the session, then closes the connection.
func (c *Client) Close() error {
	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		return nil
	}
	c.closed = true
	alive := c.readErr == nil
	c.mu.Unlock()
	if alive {
		// Best-effort goodbye; the server closes on receipt.
		_, _ = c.Do(Request{Op: OpClose})
	}
	err := c.conn.Close()
	<-c.done // join the reader
	if err != nil && !errors.Is(err, net.ErrClosed) {
		return err
	}
	return nil
}
