package bolt

// Client is a minimal Bolt driver: enough protocol to connect, run
// queries and stream records from any Bolt 4.2–5.0 server. It exists so
// the repo can exercise graphd end-to-end (tests, the load harness, the
// README quickstart) without an external driver dependency; the exported
// Send/Recv pair also allows pipelining (RUN+PULL in one flight), which
// the load harness uses.

import (
	"bufio"
	"fmt"
	"io"
	"net"
)

// ServerFailure is a FAILURE summary raised by the server, carrying the
// Neo4j-style status code drivers dispatch on.
type ServerFailure struct {
	Code    string
	Message string
}

func (e *ServerFailure) Error() string {
	return fmt.Sprintf("bolt: server failure %s: %s", e.Code, e.Message)
}

// Client drives one Bolt connection. Not safe for concurrent use. Reads
// go through a buffer, so a stream of small RECORD messages costs one
// read syscall per buffer fill rather than several per record; writes go
// straight to the connection, one per request message.
type Client struct {
	nc    net.Conn
	br    *bufio.Reader
	enc   Encoder
	buf   []byte
	Major byte
	Minor byte
}

// Dial connects to addr and negotiates the protocol version.
func Dial(addr string) (*Client, error) {
	nc, err := net.Dial("tcp", addr)
	if err != nil {
		return nil, err
	}
	c, err := NewClient(nc)
	if err != nil {
		nc.Close()
		return nil, err
	}
	return c, nil
}

// NewClient performs the client handshake on an existing connection
// (e.g. one end of a net.Pipe for in-process tests).
func NewClient(nc net.Conn) (*Client, error) {
	br := bufio.NewReader(nc)
	major, minor, err := clientHandshake(struct {
		io.Reader
		io.Writer
	}{br, nc})
	if err != nil {
		return nil, err
	}
	c := &Client{nc: nc, br: br, Major: major, Minor: minor}
	c.enc.V5 = major >= 5
	return c, nil
}

// Send writes one request message.
func (c *Client) Send(tag byte, fields ...any) error {
	c.enc.Reset()
	if err := c.enc.AppendStructure(tag, fields...); err != nil {
		return err
	}
	return writeMessage(c.nc, c.enc.Bytes())
}

// Recv reads one response message.
func (c *Client) Recv() (Structure, error) {
	payload, err := readMessage(c.br, c.buf)
	if err != nil {
		return Structure{}, err
	}
	c.buf = payload
	v, rest, err := Decode(payload)
	if err != nil {
		return Structure{}, err
	}
	st, ok := v.(Structure)
	if !ok || len(rest) != 0 {
		return Structure{}, fmt.Errorf("bolt: response is not a single structure")
	}
	return st, nil
}

// summary awaits a SUCCESS, converting FAILURE to *ServerFailure and
// IGNORED to an error.
func (c *Client) summary() (map[string]any, error) {
	st, err := c.Recv()
	if err != nil {
		return nil, err
	}
	return asSummary(st)
}

// asSummary projects a summary message; RECORD is rejected.
func asSummary(st Structure) (map[string]any, error) {
	switch st.Tag {
	case msgSuccess:
		if len(st.Fields) > 0 {
			meta, _ := st.Fields[0].(map[string]any)
			return meta, nil
		}
		return map[string]any{}, nil
	case msgFailure:
		f := &ServerFailure{}
		if len(st.Fields) > 0 {
			if meta, ok := st.Fields[0].(map[string]any); ok {
				f.Code, _ = meta["code"].(string)
				f.Message, _ = meta["message"].(string)
			}
		}
		return nil, f
	case msgIgnored:
		return nil, fmt.Errorf("bolt: request ignored (connection in failed state; RESET required)")
	default:
		return nil, fmt.Errorf("bolt: unexpected response %s", tagName(st.Tag))
	}
}

// SendRun enqueues a RUN without awaiting its summary, for pipelining
// (follow with SendPull, then RecvSummary + RecvStream).
func (c *Client) SendRun(query string, params map[string]any) error {
	if params == nil {
		params = map[string]any{}
	}
	return c.Send(msgRun, query, params, map[string]any{})
}

// SendPull enqueues a PULL without awaiting records.
func (c *Client) SendPull(n int64) error {
	return c.Send(msgPull, map[string]any{"n": n})
}

// RecvSummary awaits one summary message (SUCCESS metadata, or an error
// for FAILURE/IGNORED).
func (c *Client) RecvSummary() (map[string]any, error) {
	return c.summary()
}

// RecvStream reads records until the stream's closing summary.
func (c *Client) RecvStream() (records [][]any, hasMore bool, meta map[string]any, err error) {
	for {
		st, err := c.Recv()
		if err != nil {
			return nil, false, nil, err
		}
		if st.Tag == msgRecord {
			if len(st.Fields) > 0 {
				row, _ := st.Fields[0].([]any)
				records = append(records, row)
			}
			continue
		}
		meta, err = asSummary(st)
		if err != nil {
			return records, false, nil, err
		}
		more, _ := meta["has_more"].(bool)
		return records, more, meta, nil
	}
}

// Hello authenticates the connection (the server currently accepts any
// principal) and returns the server's HELLO metadata.
func (c *Client) Hello(agent string) (map[string]any, error) {
	if err := c.Send(msgHello, map[string]any{
		"user_agent": agent,
		"scheme":     "none",
	}); err != nil {
		return nil, err
	}
	return c.summary()
}

// Run starts a query and returns the result's column names.
func (c *Client) Run(query string, params map[string]any) ([]string, error) {
	if params == nil {
		params = map[string]any{}
	}
	if err := c.Send(msgRun, query, params, map[string]any{}); err != nil {
		return nil, err
	}
	meta, err := c.summary()
	if err != nil {
		return nil, err
	}
	var cols []string
	if fs, ok := meta["fields"].([]any); ok {
		for _, f := range fs {
			if s, ok := f.(string); ok {
				cols = append(cols, s)
			}
		}
	}
	return cols, nil
}

// Pull requests up to n records (n < 0 for all) and returns them with
// the has_more flag and the closing summary metadata.
func (c *Client) Pull(n int64) (records [][]any, hasMore bool, meta map[string]any, err error) {
	if err := c.SendPull(n); err != nil {
		return nil, false, nil, err
	}
	return c.RecvStream()
}

// RunAll runs a query and drains the whole stream.
func (c *Client) RunAll(query string, params map[string]any) (cols []string, records [][]any, err error) {
	cols, err = c.Run(query, params)
	if err != nil {
		return nil, nil, err
	}
	for {
		recs, more, _, err := c.Pull(1000)
		if err != nil {
			return cols, records, err
		}
		records = append(records, recs...)
		if !more {
			return cols, records, nil
		}
	}
}

// Begin opens an explicit transaction.
func (c *Client) Begin() error {
	if err := c.Send(msgBegin, map[string]any{}); err != nil {
		return err
	}
	_, err := c.summary()
	return err
}

// Commit commits the open transaction.
func (c *Client) Commit() error {
	if err := c.Send(msgCommit); err != nil {
		return err
	}
	_, err := c.summary()
	return err
}

// Rollback rolls back the open transaction.
func (c *Client) Rollback() error {
	if err := c.Send(msgRollback); err != nil {
		return err
	}
	_, err := c.summary()
	return err
}

// Reset clears a failed connection state (and rolls back an open
// transaction server-side).
func (c *Client) Reset() error {
	if err := c.Send(msgReset); err != nil {
		return err
	}
	_, err := c.summary()
	return err
}

// Close sends GOODBYE (best-effort) and closes the connection.
func (c *Client) Close() error {
	_ = c.Send(msgGoodbye)
	return c.nc.Close()
}

// CloseAbrupt drops the connection without GOODBYE or draining, as a
// crashed client would. Used by disconnect-storm tests.
func (c *Client) CloseAbrupt() error {
	return c.nc.Close()
}
