package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"hash/fnv"
	"io"
	"net"
	"net/http"
	"strconv"
	"time"

	"nra/internal/service"
)

// expect is what a read statement must return: the row count, checked on
// every response, and an order-independent hash of the rows, checked on
// the first occurrence and every hashEvery-th after it.
type expect struct {
	rows int
	hash uint64
}

// hashEvery is how often a response's rows are parsed and hashed rather
// than only counted. Parsing 28 k rows costs the client more CPU than
// some statements cost the server, and the two share two cores.
const hashEvery = 50

// rowHash is the FNV-1a hash of a row's canonical rendering. Numbers are
// rendered through float64 so the int64 the oracle holds and the JSON
// number the wire carries agree.
func rowHash(row []any) uint64 {
	h := fnv.New64a()
	var buf []byte
	for _, cell := range row {
		buf = buf[:0]
		switch v := cell.(type) {
		case nil:
			buf = append(buf, 'N')
		case bool:
			buf = append(buf, 'B')
			buf = strconv.AppendBool(buf, v)
		case int64:
			buf = append(buf, '#')
			buf = strconv.AppendFloat(buf, float64(v), 'g', -1, 64)
		case float64:
			buf = append(buf, '#')
			buf = strconv.AppendFloat(buf, v, 'g', -1, 64)
		case string:
			buf = append(buf, '$')
			buf = strconv.AppendInt(buf, int64(len(v)), 10)
			buf = append(buf, ':')
			buf = append(buf, v...)
		default:
			buf = append(buf, fmt.Sprintf("?%T:%v", v, v)...)
		}
		buf = append(buf, 0)
		h.Write(buf)
	}
	return h.Sum64()
}

// rowsHash sums the row hashes, so the result is a multiset hash: equal
// for equal bags of rows in any order.
func rowsHash(rows [][]any) uint64 {
	var sum uint64
	for _, r := range rows {
		sum += rowHash(r)
	}
	return sum
}

// hashRawRow parses one JSON row and hashes it.
func hashRawRow(raw []byte) (uint64, error) {
	var row []any
	if err := json.Unmarshal(raw, &row); err != nil {
		return 0, fmt.Errorf("bad row %q: %w", raw, err)
	}
	return rowHash(row), nil
}

// reply is the client's view of one answered request.
type reply struct {
	rows      int
	hash      uint64 // set only when the caller asked for it
	affected  int
	elapsedUS int64         // the server's own execution time
	ttfr      time.Duration // send → first byte of the response body
	total     time.Duration // send → last byte read and parsed
}

// conn is one closed-loop client session on either wire surface.
type conn interface {
	// read runs a SELECT, or the prepared statement prep when non-empty.
	read(sql, prep string, wantHash bool) (reply, error)
	exec(sql string) (reply, error)
	// control sends a session operation: set, prepare, pin, unpin.
	control(req service.Request) error
	close()
}

// wireResp is service.Response with the rows left unparsed.
type wireResp struct {
	OK           bool               `json:"ok"`
	Rows         []json.RawMessage  `json:"rows"`
	RowsAffected int                `json:"rows_affected"`
	Session      string             `json:"session"`
	ElapsedUS    int64              `json:"elapsed_us"`
	Error        *service.WireError `json:"error"`
}

// serverError is a request the server answered with ok=false: the
// statement failed or was refused, but the session is still usable. Any
// other error from a conn means its transport is gone.
type serverError struct{ kind, msg string }

func (e *serverError) Error() string { return "server error (" + e.kind + "): " + e.msg }

// finish turns a decoded response into a reply.
func (w *wireResp) finish(rep *reply, wantHash bool) error {
	if !w.OK {
		if w.Error != nil {
			return &serverError{w.Error.Kind, w.Error.Message}
		}
		return &serverError{"unknown", "ok=false without an error"}
	}
	rep.rows, rep.affected, rep.elapsedUS = len(w.Rows), w.RowsAffected, w.ElapsedUS
	if wantHash {
		for _, raw := range w.Rows {
			h, err := hashRawRow(raw)
			if err != nil {
				return err
			}
			rep.hash += h
		}
	}
	return nil
}

// firstByteReader notes when the first body byte arrived.
type firstByteReader struct {
	r    io.Reader
	seen time.Time
}

func (f *firstByteReader) Read(p []byte) (int, error) {
	n, err := f.r.Read(p)
	if n > 0 && f.seen.IsZero() {
		f.seen = time.Now()
	}
	return n, err
}

// httpConn speaks the HTTP/JSON API over one keep-alive connection, in
// one server-side session.
type httpConn struct {
	base    string
	client  *http.Client
	session string
	stream  bool // ask for "stream": true on reads
}

// dialHTTP opens a session on the HTTP API.
func dialHTTP(addr string, stream bool) (*httpConn, error) {
	c := &httpConn{
		base:   "http://" + addr,
		client: &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: 1}},
		stream: stream,
	}
	var hello wireResp
	if _, err := c.post("/v1/session", map[string]any{"op": service.OpHello}, func(body io.Reader) error {
		return json.NewDecoder(body).Decode(&hello)
	}); err != nil {
		return nil, err
	}
	if !hello.OK || hello.Session == "" {
		return nil, fmt.Errorf("hello: no session in %+v", hello)
	}
	c.session = hello.Session
	return c, nil
}

// post sends one request and hands the response body to consume,
// returning the send time and when the first body byte arrived.
func (c *httpConn) post(path string, body map[string]any, consume func(io.Reader) error) (reply, error) {
	if c.session != "" {
		body["session"] = c.session
	}
	payload, err := json.Marshal(body)
	if err != nil {
		return reply{}, err
	}
	start := time.Now()
	resp, err := c.client.Post(c.base+path, "application/json", bytes.NewReader(payload))
	if err != nil {
		return reply{}, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		raw, _ := io.ReadAll(resp.Body) // best effort: the status is the error
		return reply{}, fmt.Errorf("%s: HTTP %d: %s", path, resp.StatusCode, bytes.TrimSpace(raw))
	}
	fb := &firstByteReader{r: resp.Body}
	if err := consume(fb); err != nil {
		return reply{}, err
	}
	if _, err := io.Copy(io.Discard, fb); err != nil { // drain so the connection is reused
		return reply{}, err
	}
	rep := reply{total: time.Since(start)}
	if !fb.seen.IsZero() {
		rep.ttfr = fb.seen.Sub(start)
	}
	return rep, nil
}

func (c *httpConn) read(sql, prep string, wantHash bool) (reply, error) {
	path, body := "/v1/query", map[string]any{"sql": sql}
	if prep != "" {
		path, body = "/v1/run", map[string]any{"name": prep}
	}
	var parsed reply
	consume := func(r io.Reader) error {
		var w wireResp
		if err := json.NewDecoder(r).Decode(&w); err != nil {
			return err
		}
		return w.finish(&parsed, wantHash)
	}
	if c.stream {
		body["stream"] = true
		consume = func(r io.Reader) error { return readStream(r, &parsed, wantHash) }
	}
	rep, err := c.post(path, body, consume)
	if err != nil {
		return reply{}, err
	}
	parsed.ttfr, parsed.total = rep.ttfr, rep.total
	return parsed, nil
}

// readStream consumes an ndjson result: a header object, one array per
// row, a trailer object. An error before the first row arrives as a
// plain Response line instead.
func readStream(r io.Reader, rep *reply, wantHash bool) error {
	br := bufio.NewReaderSize(r, 64<<10)
	sawTrailer := false
	for {
		line, err := br.ReadBytes('\n')
		line = bytes.TrimSpace(line)
		if len(line) > 0 {
			switch line[0] {
			case '[':
				rep.rows++
				if wantHash {
					h, herr := hashRawRow(line)
					if herr != nil {
						return herr
					}
					rep.hash += h
				}
			case '{':
				var obj struct {
					Error     *service.WireError `json:"error"`
					Done      bool               `json:"done"`
					Rows      int                `json:"rows"`
					ElapsedUS int64              `json:"elapsed_us"`
				}
				if jerr := json.Unmarshal(line, &obj); jerr != nil {
					return fmt.Errorf("bad stream line %q: %w", line, jerr)
				}
				if obj.Error != nil {
					return &serverError{obj.Error.Kind, obj.Error.Message}
				}
				if obj.Done {
					sawTrailer = true
					rep.elapsedUS = obj.ElapsedUS
					if obj.Rows != rep.rows {
						return fmt.Errorf("trailer says %d rows, stream carried %d", obj.Rows, rep.rows)
					}
				}
			default:
				return fmt.Errorf("unexpected stream line %q", line)
			}
		}
		if err == io.EOF {
			break
		}
		if err != nil {
			return err
		}
	}
	if !sawTrailer {
		return fmt.Errorf("stream ended without a trailer after %d rows", rep.rows)
	}
	return nil
}

func (c *httpConn) exec(sql string) (reply, error) {
	var parsed reply
	rep, err := c.post("/v1/exec", map[string]any{"sql": sql}, func(r io.Reader) error {
		var w wireResp
		if err := json.NewDecoder(r).Decode(&w); err != nil {
			return err
		}
		return w.finish(&parsed, false)
	})
	if err != nil {
		return reply{}, err
	}
	parsed.ttfr, parsed.total = rep.ttfr, rep.total
	return parsed, nil
}

func (c *httpConn) control(req service.Request) error {
	body := map[string]any{"op": req.Op, "key": req.Key, "value": req.Value, "name": req.Name, "sql": req.SQL}
	_, err := c.post("/v1/session", body, func(r io.Reader) error {
		var w wireResp
		if err := json.NewDecoder(r).Decode(&w); err != nil {
			return err
		}
		return w.finish(&reply{}, false)
	})
	return err
}

func (c *httpConn) close() {
	if c.session != "" {
		c.control(service.Request{Op: service.OpQuit}) // best effort: the server is stopped next
	}
	c.client.CloseIdleConnections()
}

// lineConn speaks the newline-delimited JSON line protocol; the
// connection is the session.
type lineConn struct {
	c   net.Conn
	br  *bufio.Reader
	enc *json.Encoder
}

// dialLine connects to the line-protocol listener.
func dialLine(addr string) (*lineConn, error) {
	c, err := net.Dial("tcp", addr)
	if err != nil {
		return nil, err
	}
	return &lineConn{c: c, br: bufio.NewReaderSize(c, 64<<10), enc: json.NewEncoder(c)}, nil
}

// roundTrip sends one request line and reads one response line.
func (l *lineConn) roundTrip(req service.Request, wantHash bool) (reply, error) {
	start := time.Now()
	if err := l.enc.Encode(req); err != nil {
		return reply{}, err
	}
	if _, err := l.br.Peek(1); err != nil {
		return reply{}, err
	}
	ttfr := time.Since(start)
	line, err := l.br.ReadBytes('\n')
	if err != nil {
		return reply{}, err
	}
	var w wireResp
	if err := json.Unmarshal(line, &w); err != nil {
		return reply{}, fmt.Errorf("bad response line: %w", err)
	}
	rep := reply{ttfr: ttfr}
	if err := w.finish(&rep, wantHash); err != nil {
		return reply{}, err
	}
	rep.total = time.Since(start)
	return rep, nil
}

func (l *lineConn) read(sql, prep string, wantHash bool) (reply, error) {
	if prep != "" {
		return l.roundTrip(service.Request{Op: service.OpRun, Name: prep}, wantHash)
	}
	return l.roundTrip(service.Request{Op: service.OpQuery, SQL: sql}, wantHash)
}

func (l *lineConn) exec(sql string) (reply, error) {
	return l.roundTrip(service.Request{Op: service.OpExec, SQL: sql}, false)
}

func (l *lineConn) control(req service.Request) error {
	_, err := l.roundTrip(req, false)
	return err
}

func (l *lineConn) close() {
	l.enc.Encode(service.Request{Op: service.OpQuit}) // best effort
	l.c.Close()
}
