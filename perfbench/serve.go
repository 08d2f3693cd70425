package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"time"

	"github.com/score-dc/score/internal/cluster"
	"github.com/score-dc/score/internal/serve"
)

// setupBatch is the sample count of one setup Observe call (the
// daemon's per-batch cap).
const setupBatch = 4096

// loadDaemon starts a manual-mode daemon over plant p with every VM
// admitted pinned to its host in alloc and the plant's traffic
// observed, both through the daemon's Go API.
func loadDaemon(p *plant, alloc map[cluster.VMID]cluster.HostID) (*serve.Daemon, error) {
	hosts := make([]cluster.Host, p.cl.NumHosts())
	for h := range hosts {
		host, err := p.cl.Host(cluster.HostID(h))
		if err != nil {
			return nil, err
		}
		hosts[h] = host
	}
	d, err := serve.New(serve.Config{
		Topology:      serve.TopologySpec{Kind: "fattree", K: p.k, HostLinkMbps: 1000},
		Hosts:         hosts,
		MigrationCost: p.cfg.MigrationCost,
	})
	if err != nil {
		return nil, err
	}
	for _, vm := range p.cl.VMs() {
		v, err := p.cl.VM(vm)
		if err != nil {
			d.Close()
			return nil, err
		}
		if _, _, err := d.Admit(serve.AdmitRequest{ID: vm, HasID: true, RAMMB: v.RAMMB, CPUMilli: v.CPUMilli, Host: alloc[vm], HasHost: true}); err != nil {
			d.Close()
			return nil, fmt.Errorf("admitting VM %d: %w", vm, err)
		}
	}
	pairs, rates := p.tm.Pairs()
	for i := 0; i < len(pairs); i += setupBatch {
		j := min(i+setupBatch, len(pairs))
		batch := make([]serve.RateSample, 0, j-i)
		for k := i; k < j; k++ {
			batch = append(batch, serve.RateSample{A: pairs[k].A, B: pairs[k].B, RateMbps: rates[k]})
		}
		applied, rejected, err := d.Observe("setup", batch)
		if err == nil && (applied != len(batch) || rejected != 0) {
			err = fmt.Errorf("applied %d of %d, rejected %d", applied, len(batch), rejected)
		}
		if err != nil {
			d.Close()
			return nil, fmt.Errorf("observing setup traffic: %w", err)
		}
	}
	return d, nil
}

// httpClient is one keep-alive connection to the daemon.
func httpClient() *http.Client {
	return &http.Client{
		Timeout:   30 * time.Second,
		Transport: &http.Transport{MaxIdleConnsPerHost: 1, MaxConnsPerHost: 1, DisableCompression: true},
	}
}

// call sends one request and decodes a JSON reply into out (when
// non-nil and the status is 2xx).
func call(c *http.Client, method, url string, body []byte, out any) (int, error) {
	req, err := http.NewRequest(method, url, bytes.NewReader(body))
	if err != nil {
		return 0, err
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	resp, err := c.Do(req)
	if err != nil {
		return 0, err
	}
	defer resp.Body.Close()
	buf, err := io.ReadAll(resp.Body)
	if err != nil {
		return resp.StatusCode, err
	}
	if out != nil && resp.StatusCode/100 == 2 {
		if err := json.Unmarshal(buf, out); err != nil {
			return resp.StatusCode, fmt.Errorf("%s %s: decoding reply: %w", method, url, err)
		}
	}
	return resp.StatusCode, nil
}

// status is the subset of GET /v1/status the benchmark checks.
type status struct {
	VMs    int `json:"vms"`
	Ingest struct {
		Samples      uint64 `json:"samples"`
		Backpressure uint64 `json:"backpressure"`
	} `json:"ingest"`
}

func getStatus(c *http.Client, base string) (status, error) {
	var st status
	code, err := call(c, http.MethodGet, base+"/v1/status", nil, &st)
	if err == nil && code != http.StatusOK {
		err = fmt.Errorf("GET /v1/status: HTTP %d", code)
	}
	return st, err
}

func scrape(c *http.Client, base string) (*promText, error) {
	resp, err := c.Get(base + "/metrics")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("GET /metrics: HTTP %d", resp.StatusCode)
	}
	return parseProm(resp.Body)
}
