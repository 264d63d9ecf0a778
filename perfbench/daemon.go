package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"os/exec"
	"regexp"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"

	"cachemind/internal/engine"
)

// daemon is one cachemindd child process.
type daemon struct {
	cmd   *exec.Cmd
	log   *logWatch
	addr  string // service address, parsed from the "listening on" log line
	pprof string // -pprof-addr listener
	// setup is the time from exec until /readyz first answered 200.
	setup time.Duration
}

// startDaemon execs bin with args, waits until /readyz answers 200, and
// returns the running daemon. The child is killed if this process dies.
func startDaemon(bin string, args []string) (*daemon, error) {
	pprofAddr, err := freeAddr()
	if err != nil {
		return nil, err
	}
	args = append([]string{"-addr", "127.0.0.1:0", "-pprof-addr", pprofAddr}, args...)
	d := &daemon{log: newLogWatch(), pprof: pprofAddr}
	d.cmd = exec.Command(bin, args...)
	d.cmd.Stderr = d.log
	d.cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	start := time.Now()
	if err := d.cmd.Start(); err != nil {
		return nil, fmt.Errorf("start %s: %w", bin, err)
	}
	if err := d.waitReady(start); err != nil {
		d.stop()
		return nil, fmt.Errorf("%w; daemon log:\n%s", err, d.log.text())
	}
	return d, nil
}

func (d *daemon) waitReady(start time.Time) error {
	const timeout = 60 * time.Second
	select {
	case d.addr = <-d.log.addr:
	case <-time.After(timeout):
		return errors.New("cachemindd never logged its listen address")
	}
	probe := &http.Client{Timeout: time.Second}
	for time.Since(start) < timeout {
		resp, err := probe.Get("http://" + d.addr + "/readyz")
		if err == nil {
			_, _ = io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				d.setup = time.Since(start)
				probe.CloseIdleConnections()
				return nil
			}
		}
		time.Sleep(2 * time.Millisecond)
	}
	return errors.New("cachemindd never became ready")
}

// stop terminates the daemon gracefully (SIGTERM, then SIGKILL after a
// grace period) and waits for it to exit.
func (d *daemon) stop() {
	if d.cmd.Process == nil {
		return
	}
	_ = d.cmd.Process.Signal(syscall.SIGTERM)
	done := make(chan struct{})
	go func() {
		_ = d.cmd.Wait()
		close(done)
	}()
	select {
	case <-done:
	case <-time.After(15 * time.Second):
		_ = d.cmd.Process.Kill()
		<-done
	}
}

func (d *daemon) pid() string { return strconv.Itoa(d.cmd.Process.Pid) }

// memStats reads the daemon's cumulative allocation counters from the
// runtime.MemStats block of its pprof heap profile.
func (d *daemon) memStats() (mallocs, totalAlloc uint64, err error) {
	resp, err := http.Get("http://" + d.pprof + "/debug/pprof/heap?debug=1")
	if err != nil {
		return 0, 0, err
	}
	defer resp.Body.Close()
	var haveMallocs, haveTotal bool
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 0, 1<<16), 1<<20)
	for sc.Scan() {
		line := sc.Text()
		if v, ok := strings.CutPrefix(line, "# Mallocs = "); ok {
			mallocs, err = strconv.ParseUint(v, 10, 64)
			haveMallocs = err == nil
		} else if v, ok := strings.CutPrefix(line, "# TotalAlloc = "); ok {
			totalAlloc, err = strconv.ParseUint(v, 10, 64)
			haveTotal = err == nil
		}
	}
	if err := sc.Err(); err != nil {
		return 0, 0, err
	}
	if !haveMallocs || !haveTotal {
		return 0, 0, errors.New("heap profile carries no MemStats block")
	}
	return mallocs, totalAlloc, nil
}

// cacheEntries scrapes the live answer-cache entry count from /metrics.
func (d *daemon) cacheEntries() (int, error) {
	resp, err := http.Get("http://" + d.addr + "/metrics")
	if err != nil {
		return 0, err
	}
	defer resp.Body.Close()
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		if v, ok := strings.CutPrefix(sc.Text(), "cachemind_answer_cache_entries "); ok {
			return strconv.Atoi(v)
		}
	}
	return 0, errors.New("no cachemind_answer_cache_entries in /metrics")
}

// freeAddr returns a loopback address with a port that was free a
// moment ago (cachemindd's -pprof-addr cannot report an ephemeral port).
func freeAddr() (string, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", err
	}
	defer ln.Close()
	return ln.Addr().String(), nil
}

// listenLine matches the service listener's log line (and not the
// "pprof listening on" line).
var listenLine = regexp.MustCompile(`(?m)^cachemindd: listening on (\S+)\n`)

// logWatch collects the daemon's log and delivers its listen address
// once the "listening on" line appears.
type logWatch struct {
	mu   sync.Mutex
	buf  bytes.Buffer
	addr chan string // receives the address once
	sent bool
}

func newLogWatch() *logWatch { return &logWatch{addr: make(chan string, 1)} }

func (l *logWatch) Write(p []byte) (int, error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.buf.Write(p)
	if !l.sent {
		if m := listenLine.FindSubmatch(l.buf.Bytes()); m != nil {
			l.sent = true
			l.addr <- string(m[1])
		}
	}
	return len(p), nil
}

func (l *logWatch) text() string {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.buf.String()
}

// httpAsker sends each ask as POST /v1/ask over one keep-alive
// connection per client.
type httpAsker struct {
	url      string
	conns    []*http.Client
	bufs     [][]byte
	qjson    [][]byte // JSON-encoded question per pool text
	sessions []string
}

func newHTTPAsker(addr string, texts, sessions []string) (*httpAsker, error) {
	d := &httpAsker{url: "http://" + addr + "/v1/ask", sessions: sessions}
	for _, t := range texts {
		b, err := json.Marshal(t)
		if err != nil {
			return nil, err
		}
		d.qjson = append(d.qjson, b)
	}
	for range clients {
		d.conns = append(d.conns, &http.Client{Transport: &http.Transport{
			MaxIdleConnsPerHost: 1,
			MaxConnsPerHost:     1,
			DisableCompression:  true,
		}})
		d.bufs = append(d.bufs, nil)
	}
	return d, nil
}

// wireReply is the subset of the /v1/ask reply the benchmark checks.
type wireReply struct {
	Answer      string  `json:"answer"`
	CacheTier   string  `json:"cache_tier"`
	RetrievalMS float64 `json:"retrieval_ms"`
	GenerateMS  float64 `json:"generate_ms"`
	TotalMS     float64 `json:"total_ms"`
	Error       *struct {
		Code    string `json:"code"`
		Message string `json:"message"`
	} `json:"error"`
}

func (d *httpAsker) ask(c int, it item) reply {
	b := append(d.bufs[c][:0], `{"session":"`...)
	b = append(b, d.sessions[it.session]...)
	b = append(b, `","question":`...)
	b = append(b, d.qjson[it.q]...)
	b = append(b, '}')
	d.bufs[c] = b
	resp, err := d.conns[c].Post(d.url, "application/json", bytes.NewReader(b))
	if err != nil {
		return reply{err: err}
	}
	data, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		return reply{err: err}
	}
	var w wireReply
	if err := json.Unmarshal(data, &w); err != nil {
		return reply{err: fmt.Errorf("decode reply (status %d): %w", resp.StatusCode, err)}
	}
	if w.Error != nil || resp.StatusCode != http.StatusOK {
		return reply{err: fmt.Errorf("status %d: %s", resp.StatusCode, data)}
	}
	return reply{
		text:       w.Answer,
		tier:       engine.CacheTier(w.CacheTier),
		serverNS:   int64(w.TotalMS * 1e6),
		pipelineNS: int64((w.RetrievalMS + w.GenerateMS) * 1e6),
	}
}

func (d *httpAsker) close() {
	for _, c := range d.conns {
		c.CloseIdleConnections()
	}
}
