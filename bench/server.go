package main

import (
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strconv"
	"syscall"
	"time"
)

// serverProc is one `diffaudit serve` subprocess.
type serverProc struct {
	cmd     *exec.Cmd
	base    string // http://127.0.0.1:<port>
	log     *os.File
	readyMs float64 // exec → first 200 on /v1/healthz
	exited  chan struct{}
}

// serverWorkers is the -workers value every workload uses: half the CPUs.
// Each job already fans out inside the pipeline; with as many job workers as
// CPUs the two levels oversubscribe the machine and upload throughput swings
// by ±20% between runs.
func serverWorkers() int { return max(1, runtime.NumCPU()/2) }

// startServer execs the real binary on a free loopback port with the journal,
// the filesystem store and the decoded-snapshot cache all live (that is what
// -data-dir turns on), and waits for /v1/healthz. cacheMB 0 keeps the
// server's default of 64.
func startServer(bin, dataDir, logPath string, cacheMB int) (*serverProc, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	addr := ln.Addr().String()
	ln.Close()

	args := []string{"serve", "-addr", addr, "-data-dir", dataDir, "-workers", strconv.Itoa(serverWorkers())}
	if cacheMB > 0 {
		args = append(args, "-cache-mb", strconv.Itoa(cacheMB))
	}
	logf, err := os.OpenFile(logPath, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return nil, err
	}
	cmd := exec.Command(bin, args...)
	cmd.Stdout, cmd.Stderr = logf, logf
	start := time.Now()
	if err := cmd.Start(); err != nil {
		logf.Close()
		return nil, err
	}
	p := &serverProc{cmd: cmd, base: "http://" + addr, log: logf, exited: make(chan struct{})}
	go func() {
		cmd.Wait()
		close(p.exited)
	}()

	probe := &http.Client{Timeout: time.Second}
	deadline := start.Add(30 * time.Second)
	for time.Now().Before(deadline) {
		select {
		case <-p.exited:
			logf.Close()
			return nil, fmt.Errorf("server exited during start-up; see %s", logPath)
		default:
		}
		resp, err := probe.Get(p.base + "/v1/healthz")
		if err == nil {
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				p.readyMs = ms(time.Since(start))
				probe.CloseIdleConnections()
				return p, nil
			}
		}
		time.Sleep(2 * time.Millisecond)
	}
	p.kill()
	return nil, fmt.Errorf("server not healthy after 30s; see %s", logPath)
}

func (p *serverProc) pid() int { return p.cmd.Process.Pid }

// stop asks for a graceful shutdown (the server drains queued jobs) and
// waits for the process to end, killing it if it does not.
func (p *serverProc) stop() {
	p.cmd.Process.Signal(syscall.SIGTERM)
	select {
	case <-p.exited:
	case <-time.After(20 * time.Second):
		p.cmd.Process.Kill()
		<-p.exited
	}
	p.log.Close()
}

// kill is the crash: SIGKILL, no drain.
func (p *serverProc) kill() {
	p.cmd.Process.Kill()
	<-p.exited
	p.log.Close()
}

// health is the slice of /v1/healthz the harness reads.
type health struct {
	Admission struct {
		Shed        float64 `json:"shed"`
		RateLimited float64 `json:"rate_limited"`
	} `json:"admission"`
	Cache struct {
		Hits      float64 `json:"hits"`
		Misses    float64 `json:"misses"`
		Evictions float64 `json:"evictions"`
		Coalesced float64 `json:"coalesced"`
	} `json:"cache"`
	Breaker struct {
		Trips float64 `json:"trips"`
	} `json:"breaker"`
}

func getHealth(hc *http.Client, base string) (health, error) {
	var h health
	resp, err := hc.Get(base + "/v1/healthz")
	if err != nil {
		return h, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return h, fmt.Errorf("healthz: status %d", resp.StatusCode)
	}
	return h, json.NewDecoder(resp.Body).Decode(&h)
}

// buildServer compiles ./cmd/diffaudit of the checkout into the build
// directory. The go command's caches are wherever the environment points
// them (run.sh points them inside the checkout).
func buildServer(root, buildDir string) (bin string, seconds float64, err error) {
	bin = filepath.Join(buildDir, "diffaudit")
	start := time.Now()
	cmd := exec.Command("go", "build", "-o", bin, "./cmd/diffaudit")
	cmd.Dir = root
	if out, err := cmd.CombinedOutput(); err != nil {
		return "", 0, fmt.Errorf("go build ./cmd/diffaudit: %v\n%s", err, out)
	}
	return bin, time.Since(start).Seconds(), nil
}

// snapFiles returns the bytes and count of the snapshot files under a data
// directory.
func snapFiles(dir string) (bytes int64, files int, err error) {
	err = filepath.Walk(dir, func(path string, info os.FileInfo, err error) error {
		if err != nil {
			if os.IsNotExist(err) {
				return nil // a temp file renamed away mid-walk
			}
			return err
		}
		if info.Mode().IsRegular() && filepath.Ext(path) == ".snap" {
			bytes += info.Size()
			files++
		}
		return nil
	})
	return bytes, files, err
}

func ms(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }
