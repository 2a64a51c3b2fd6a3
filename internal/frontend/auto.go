package frontend

import (
	"bufio"
	"errors"
	"fmt"
	"net"
	"slices"
	"time"

	"adr/internal/costmodel"
	"adr/internal/metrics"
	"adr/internal/plan"
)

// AUTO strategy resolution. A query submitted with strategy "AUTO" cannot be
// resolved independently on each back-end node: every node must execute the
// identical plan, but the calibrations pricing the candidates are per-node,
// so two nodes could disagree on the winner and the mesh would diverge. The
// resolver — the front-end, or a parallel client — therefore asks ONE node
// for estimates (NodeRequest.Estimate), stamps the winning strategy into the
// spec, and relays the resolved spec to every node; execution then plans
// deterministically from the shared catalog exactly as fixed-strategy
// queries do.

// IsAuto reports whether the spec requests cost-model strategy selection.
func (q *QuerySpec) IsAuto() bool {
	s, err := q.ParseStrategy()
	return err == nil && s == plan.Auto
}

// ResolveAuto asks the back-end nodes — first reachable wins — to cost spec
// under every fixed strategy and returns the selection. The caller stamps
// Selection.Strategy into the spec it executes. Timeouts follow the usual
// convention (0 selects the default, negative disables).
func ResolveAuto(addrs []string, spec *QuerySpec, dialTimeout, readTimeout time.Duration) (*metrics.Selection, error) {
	return resolveAuto(addrs, nil, spec, dialTimeout, readTimeout)
}

// resolveAuto is ResolveAuto for a resolver that knows the nodes in dead
// are gone: it asks none of them, and the node it asks plans without them.
func resolveAuto(addrs []string, dead []int, spec *QuerySpec, dialTimeout, readTimeout time.Duration) (*metrics.Selection, error) {
	var errs []error
	for i, addr := range addrs {
		if slices.Contains(dead, i) {
			continue
		}
		sel, err := requestEstimate(addr, dead, spec, dialTimeout, readTimeout)
		if err != nil {
			errs = append(errs, fmt.Errorf("frontend: estimates from node %d at %s: %w", i, addr, err))
			continue
		}
		return sel, nil
	}
	if len(errs) == 0 {
		return nil, fmt.Errorf("frontend: all %d back-end nodes are dead", len(addrs))
	}
	return nil, errors.Join(errs...)
}

// requestEstimate performs one estimate round-trip with a node, which prices
// the candidates without the nodes in dead, as the query will run.
func requestEstimate(addr string, dead []int, spec *QuerySpec, dialTimeout, readTimeout time.Duration) (*metrics.Selection, error) {
	conn, err := net.DialTimeout("tcp", addr, timeoutOrDefault(dialTimeout, defaultDialTimeout))
	if err != nil {
		return nil, err
	}
	defer conn.Close()
	if err := WriteJSON(conn, &NodeRequest{Spec: *spec, Estimate: true, Exclude: dead}); err != nil {
		return nil, err
	}
	if t := timeoutOrDefault(readTimeout, defaultStreamTimeout); t > 0 {
		conn.SetReadDeadline(time.Now().Add(t))
	}
	var msg Message
	if err := ReadJSON(bufio.NewReader(conn), &msg); err != nil {
		return nil, err
	}
	switch msg.Type {
	case "estimate":
		if msg.Selection == nil || msg.Selection.Strategy == "" {
			return nil, fmt.Errorf("empty estimate frame")
		}
		return msg.Selection, nil
	case "error":
		return nil, queryErrFrom(-1, &msg)
	default:
		return nil, fmt.Errorf("unexpected frame %q to estimate request", msg.Type)
	}
}

// resolveSpec is the AUTO step ahead of a fan-out. A fixed-strategy spec
// passes through with a nil selection; an AUTO spec is priced by a node not
// in dead and comes back as a copy with the winner stamped in, leaving the
// caller's spec (which may be retried or shared) untouched.
func resolveSpec(addrs []string, dead []int, spec *QuerySpec, dialTimeout, readTimeout time.Duration) (*QuerySpec, *metrics.Selection, error) {
	if !spec.IsAuto() {
		return spec, nil, nil
	}
	sel, err := resolveAuto(addrs, dead, spec, dialTimeout, readTimeout)
	if err != nil {
		return nil, nil, err
	}
	out := *spec
	out.Strategy = sel.Strategy
	return &out, sel, nil
}

// finishAuto is the AUTO step behind a settled fan-out: it closes the loop on
// the prediction with how the chosen strategy actually ran and attaches the
// full selection to the merged stats. A nil sel (fixed strategy) is a no-op.
func finishAuto(sel *metrics.Selection, total *DoneStats) {
	if sel == nil {
		return
	}
	costmodel.RecordOutcome(sel, autoActualSec(total))
	total.Selection = sel
}

// autoActualSec extracts the measured execution time of a merged query:
// the slowest node's wall time (the live makespan), falling back to the
// elapsed-time maximum when no traces came back.
func autoActualSec(total *DoneStats) float64 {
	wall := total.QueryTrace(0).MaxWall()
	if wall == 0 {
		wall = time.Duration(total.ElapsedMS) * time.Millisecond
	}
	return wall.Seconds()
}
