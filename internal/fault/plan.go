// Package fault injects deterministic failures into the TailGuard
// simulator and testbed. A fault *plan* is a declarative, serializable
// list of per-server fault windows — service slowdowns, full-stop stalls,
// crash/restart cycles, and transport delay/drop — that an Engine
// compiles into O(log n) lookups driven entirely by the simulation clock
// and a seeded counter stream. The package observes the same determinism
// contract tglint enforces elsewhere: no wall clock, no global rand
// (the faultdet row of tglint's forbidcall analyzer), so identical
// (seed, plan) pairs replay bit-identical fault schedules.
package fault

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"hash/fnv"
	"os"
	"sort"
)

// Kind names a fault class. The string values are the on-disk plan
// vocabulary and the labels experiment tables report.
type Kind string

const (
	// Slowdown multiplies a server's service times by Factor inside the
	// window (a degraded disk, a noisy neighbor).
	Slowdown Kind = "slowdown"
	// Stall halts all service progress on a server inside the window
	// (a GC pause, a lock convoy). In-flight work resumes afterwards;
	// nothing is lost.
	Stall Kind = "stall"
	// Crash kills a server at StartMs — its queue and in-flight task are
	// lost — and restarts it empty at EndMs.
	Crash Kind = "crash"
	// TransportDelay adds DelayMs to every dispatch to the server inside
	// the window (network congestion on the saas path).
	TransportDelay Kind = "transport-delay"
	// TransportDrop drops each dispatch to the server inside the window
	// with probability DropProb, drawn from the engine's seeded stream.
	TransportDrop Kind = "transport-drop"
)

// AllServers is the Fault.Server value meaning "every server".
const AllServers = -1

// Fault is one fault window in a plan. Which auxiliary field applies
// depends on Kind: Factor for slowdown, DelayMs for transport-delay,
// DropProb for transport-drop; stall and crash need only the window.
type Fault struct {
	Kind     Kind    `json:"kind"`
	Server   int     `json:"server"` // server index, or AllServers (-1)
	StartMs  float64 `json:"start_ms"`
	EndMs    float64 `json:"end_ms"`
	Factor   float64 `json:"factor,omitempty"`
	DelayMs  float64 `json:"delay_ms,omitempty"`
	DropProb float64 `json:"drop_prob,omitempty"`
}

// Plan is a serializable fault schedule plus the seed for every random
// draw the engine makes (currently: transport-drop coin flips).
type Plan struct {
	Name   string  `json:"name,omitempty"`
	Seed   int64   `json:"seed"`
	Faults []Fault `json:"faults"`
}

// ParsePlan decodes a JSON fault plan. Unknown fields are an error so a
// typo'd plan fails loudly instead of silently injecting nothing.
func ParsePlan(data []byte) (*Plan, error) {
	var p Plan
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&p); err != nil {
		return nil, fmt.Errorf("fault: parse plan: %w", err)
	}
	return &p, nil
}

// LoadPlan reads and decodes a JSON fault plan from path.
func LoadPlan(path string) (*Plan, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("fault: load plan: %w", err)
	}
	return ParsePlan(data)
}

// Marshal renders the plan as indented JSON suitable for committing next
// to the sweep artifacts it produced.
func (p *Plan) Marshal() ([]byte, error) {
	return json.MarshalIndent(p, "", "  ")
}

// category groups fault kinds whose windows may not overlap on the same
// server: two simultaneous slowdowns on one server have no defined
// composite factor, so we reject the plan instead of guessing.
func (k Kind) category() string {
	switch k {
	case Slowdown, Stall:
		return "service"
	case Crash:
		return "crash"
	case TransportDelay:
		return "transport-delay"
	case TransportDrop:
		return "transport-drop"
	}
	return ""
}

// Validate checks the plan against a cluster of `servers` servers:
// known kinds, server indices in range, well-formed windows, auxiliary
// fields in range for their kind, and no overlapping windows of the same
// category on the same server (after expanding AllServers entries).
func (p *Plan) Validate(servers int) error {
	if p == nil {
		return errors.New("fault: nil plan")
	}
	if servers <= 0 {
		return fmt.Errorf("fault: plan requires a positive server count, got %d", servers)
	}
	type key struct {
		server   int
		category string
	}
	type span struct{ start, end float64 }
	wins := make(map[key][]span)
	for i, f := range p.Faults {
		cat := f.Kind.category()
		if cat == "" {
			return fmt.Errorf("fault: plan fault %d: unknown kind %q", i, f.Kind)
		}
		if f.Server != AllServers && (f.Server < 0 || f.Server >= servers) {
			return fmt.Errorf("fault: plan fault %d: server %d out of range [0,%d)", i, f.Server, servers)
		}
		if f.StartMs < 0 || f.EndMs <= f.StartMs {
			return fmt.Errorf("fault: plan fault %d: window [%g,%g) is not a forward interval", i, f.StartMs, f.EndMs)
		}
		switch f.Kind {
		case Slowdown:
			if f.Factor <= 1 {
				return fmt.Errorf("fault: plan fault %d: slowdown factor %g must exceed 1", i, f.Factor)
			}
		case TransportDelay:
			if f.DelayMs <= 0 {
				return fmt.Errorf("fault: plan fault %d: transport-delay delay_ms %g must be positive", i, f.DelayMs)
			}
		case TransportDrop:
			if f.DropProb <= 0 || f.DropProb > 1 {
				return fmt.Errorf("fault: plan fault %d: transport-drop drop_prob %g outside (0,1]", i, f.DropProb)
			}
		}
		lo, hi := f.Server, f.Server
		if f.Server == AllServers {
			lo, hi = 0, servers-1
		}
		for s := lo; s <= hi; s++ {
			k := key{s, cat}
			wins[k] = append(wins[k], span{f.StartMs, f.EndMs})
		}
	}
	// Check the (server, category) groups in sorted order: with several
	// overlap violations present, which one Validate names must not depend
	// on map iteration order.
	keys := make([]key, 0, len(wins))
	for k := range wins {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool {
		if keys[i].server != keys[j].server {
			return keys[i].server < keys[j].server
		}
		return keys[i].category < keys[j].category
	})
	for _, k := range keys {
		spans := wins[k]
		sort.Slice(spans, func(i, j int) bool { return spans[i].start < spans[j].start })
		for i := 1; i < len(spans); i++ {
			if spans[i].start < spans[i-1].end {
				return fmt.Errorf("fault: overlapping %s windows on server %d ([%g,%g) and [%g,%g))",
					k.category, k.server,
					spans[i-1].start, spans[i-1].end, spans[i].start, spans[i].end)
			}
		}
	}
	return nil
}

// Hash returns a short stable fingerprint of the plan's semantics (seed
// and faults; the display name is excluded). Sweep artifacts embed it in
// filenames so runs of different plans can never silently overwrite each
// other.
func (p *Plan) Hash() string {
	h := fnv.New64a()
	if p == nil {
		return "00000000"
	}
	// fnv's Write never fails.
	_, _ = fmt.Fprintf(h, "seed=%d;", p.Seed)
	for _, f := range p.Faults {
		_, _ = fmt.Fprintf(h, "kind=%s,server=%d,start=%g,end=%g,factor=%g,delay=%g,drop=%g;",
			f.Kind, f.Server, f.StartMs, f.EndMs, f.Factor, f.DelayMs, f.DropProb)
	}
	return fmt.Sprintf("%08x", uint32(h.Sum64()^(h.Sum64()>>32)))
}
