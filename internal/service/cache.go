package service

import (
	"bytes"
	"encoding/json"
	"fmt"

	"repro/internal/asm"
	"repro/internal/glift"
	"repro/internal/repair"
)

// cachedResult is one completed execution in the result cache: the final
// analysis report, plus — for repair jobs — the full repair payload in wire
// form. Analysis and repair keys live in disjoint keyspaces (repairKey is
// domain-tagged), so an entry's shape is determined by its key.
type cachedResult struct {
	rep  *glift.Report
	rres *repair.ResultJSON // non-nil for repair jobs
}

// completed reports whether the exploration finished (Verified or
// Violations): only such results are cached and persisted, because an
// Incomplete or InternalError outcome reflects the run, not the inputs.
func (c *cachedResult) completed() bool {
	v := c.rep.Verdict()
	return v == glift.Verified || v == glift.Violations
}

// payload is the result's store record: the repair payload for repair
// jobs, the report's wire form otherwise.
func (c *cachedResult) payload() ([]byte, error) {
	if c.rres != nil {
		return json.Marshal(c.rres)
	}
	return json.Marshal(c.rep.JSON())
}

// decodeResult rebuilds a result from its store record for a job of the
// given mode. A record is trusted only after full reconstruction: it must
// parse, its report must rebuild, and it must re-serialize byte-identically
// — the same bytes a cold run would produce. A repair record must also
// pass the payload's own validation, and its patched assembly must still
// assemble.
func decodeResult(mode string, payload []byte) (*cachedResult, error) {
	c := &cachedResult{}
	var err error
	if mode == modeRepair {
		c.rres = &repair.ResultJSON{}
		if err = json.Unmarshal(payload, c.rres); err != nil {
			return nil, err
		}
		if err = c.rres.Validate(); err != nil {
			return nil, err
		}
		if c.rep, err = c.rres.Report.Report(); err != nil {
			return nil, err
		}
		if _, err = asm.AssembleSource(c.rres.PatchedAsm); err != nil {
			return nil, err
		}
	} else {
		var rj glift.ReportJSON
		if err = json.Unmarshal(payload, &rj); err != nil {
			return nil, err
		}
		if c.rep, err = rj.Report(); err != nil {
			return nil, err
		}
	}
	canon, err := c.payload()
	if err != nil {
		return nil, err
	}
	if !bytes.Equal(canon, payload) {
		return nil, fmt.Errorf("record does not re-serialize byte-identically")
	}
	return c, nil
}

// resultCache is the content-addressed result store: completed results keyed
// by canonical job key. Results are immutable after completion, so entries
// are shared by pointer. Eviction is FIFO by insertion order — the cache is
// a bounded memo, not a working-set optimizer, and FIFO keeps it O(1) with
// no per-hit bookkeeping. All methods are called under Server.mu.
type resultCache struct {
	cap     int
	entries map[string]*cachedResult
	order   []string // insertion order for FIFO eviction
}

func newResultCache(capacity int) *resultCache {
	return &resultCache{cap: capacity, entries: make(map[string]*cachedResult)}
}

func (c *resultCache) get(key string) (*cachedResult, bool) {
	res, ok := c.entries[key]
	return res, ok
}

func (c *resultCache) put(key string, res *cachedResult) {
	if _, exists := c.entries[key]; exists {
		c.entries[key] = res
		return
	}
	for len(c.entries) >= c.cap && len(c.order) > 0 {
		oldest := c.order[0]
		c.order = c.order[1:]
		delete(c.entries, oldest)
	}
	c.entries[key] = res
	c.order = append(c.order, key)
}

func (c *resultCache) len() int { return len(c.entries) }
