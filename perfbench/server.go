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
	"os"
	"os/exec"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// worker is one ladmserve process under test, listening on loopback in
// its default composition (observer on, Info-level logs discarded).
type worker struct {
	cmd    *exec.Cmd
	addr   string // host:port
	base   string // http://host:port
	exited chan struct{}
}

// startWorker launches ladmserve with extra flags and returns once its
// /readyz answers 200.
func startWorker(bin string, client *http.Client, args ...string) (*worker, error) {
	addr, err := freeAddr()
	if err != nil {
		return nil, err
	}
	cmd := exec.Command(bin, append([]string{"-addr", addr}, args...)...)
	// Nil Stdout/Stderr discard the process's logs. The kernel kills the
	// worker if the benchmark dies without stopping it.
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	if err := cmd.Start(); err != nil {
		return nil, fmt.Errorf("start ladmserve: %w", err)
	}
	w := &worker{cmd: cmd, addr: addr, base: "http://" + addr, exited: make(chan struct{})}
	go func() {
		cmd.Wait()
		close(w.exited)
	}()
	deadline := time.Now().Add(30 * time.Second)
	for {
		resp, err := client.Get(w.base + "/readyz")
		if err == nil {
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return w, nil
			}
		}
		select {
		case <-w.exited:
			return nil, fmt.Errorf("ladmserve %v exited before becoming ready", args)
		case <-time.After(5 * time.Millisecond):
		}
		if time.Now().After(deadline) {
			w.stop()
			return nil, errors.New("ladmserve did not become ready within 30s")
		}
	}
}

// freeAddr picks a loopback port the kernel reports free.
func freeAddr() (string, error) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", err
	}
	addr := l.Addr().String()
	l.Close()
	return addr, nil
}

// stop asks the process to drain (SIGTERM flushes the store's
// write-behind queue) and waits for it to exit, killing it after 20s.
func (w *worker) stop() {
	w.cmd.Process.Signal(syscall.SIGTERM)
	select {
	case <-w.exited:
	case <-time.After(20 * time.Second):
		w.cmd.Process.Kill()
		<-w.exited
	}
}

// peakRSSMB is the process's peak resident set (VmHWM) in MiB.
func (w *worker) peakRSSMB() (float64, error) {
	data, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", w.cmd.Process.Pid))
	if err != nil {
		return 0, err
	}
	sc := bufio.NewScanner(bytes.NewReader(data))
	for sc.Scan() {
		if rest, ok := strings.CutPrefix(sc.Text(), "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(rest), "kB")), 64)
			if err != nil {
				return 0, err
			}
			return kb / 1024, nil
		}
	}
	return 0, errors.New("no VmHWM in /proc status")
}

// scrape reads the worker's /metrics into series -> value, keyed by the
// full series name including labels.
func (w *worker) scrape(client *http.Client) (map[string]float64, error) {
	resp, err := client.Get(w.base + "/metrics")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	out := map[string]float64{}
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		line := sc.Text()
		if line == "" || line[0] == '#' {
			continue
		}
		i := strings.LastIndexByte(line, ' ')
		if i < 0 {
			continue
		}
		if v, err := strconv.ParseFloat(line[i+1:], 64); err == nil {
			out[line[:i]] = v
		}
	}
	return out, sc.Err()
}

// get fetches a document from the worker, failing on a non-200 answer.
func (w *worker) get(client *http.Client, path string) ([]byte, error) {
	resp, err := client.Get(w.base + path)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, err
	}
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("GET %s: %d", path, resp.StatusCode)
	}
	return body, nil
}

// getJSON decodes a JSON document from the worker into v.
func getJSON(w *worker, client *http.Client, path string, v any) error {
	body, err := w.get(client, path)
	if err != nil {
		return err
	}
	return json.Unmarshal(body, v)
}

// newClient is the benchmark's HTTP client: conns keep-alive
// connections to the worker, each call bounded by timeout.
func newClient(conns int, timeout time.Duration) *http.Client {
	return &http.Client{
		Timeout: timeout,
		Transport: &http.Transport{
			MaxIdleConns:        conns,
			MaxIdleConnsPerHost: conns,
			IdleConnTimeout:     time.Minute,
		},
	}
}
