package rpc

import (
	"strconv"

	"adr/internal/metrics"
)

// meters is a transport's set of process-wide RPC counters in the Default
// registry: aggregate message/byte totals per direction plus per-peer byte
// volume (the quantity Fig 9(a–b) plots per processor). Counter handles are
// resolved once at fabric construction so the per-message cost is a single
// atomic add.
type meters struct {
	sentMsgs, recvMsgs   *metrics.Counter
	sentBytes, recvBytes *metrics.Counter
	peerSent, peerRecv   []*metrics.Counter // indexed by peer node id
	peerUp               []*metrics.Gauge   // 1 while the peer's connection is live
	peerFailures         *metrics.Counter
	// Flow control: per-peer in-flight (sent, not yet credited back) payload
	// bytes, a transport-wide high-water mark of the same, and how many sends
	// stalled waiting for credit. All zero on fabrics without flow control.
	peerInflight []*metrics.Gauge
	inflightPeak *metrics.Gauge
	creditStalls *metrics.Counter
}

func newMeters(transport string, nodes int) *meters {
	reg := metrics.Default
	lbl := `{transport="` + transport + `"}`
	m := &meters{
		sentMsgs:     reg.Counter("adr_rpc_sent_msgs_total" + lbl),
		recvMsgs:     reg.Counter("adr_rpc_recv_msgs_total" + lbl),
		sentBytes:    reg.Counter("adr_rpc_sent_bytes_total" + lbl),
		recvBytes:    reg.Counter("adr_rpc_recv_bytes_total" + lbl),
		peerFailures: reg.Counter("adr_rpc_peer_failures_total" + lbl),
		inflightPeak: reg.Gauge("adr_rpc_inflight_peak_bytes" + lbl),
		creditStalls: reg.Counter("adr_rpc_credit_stalls_total" + lbl),
	}
	for p := 0; p < nodes; p++ {
		plbl := `{transport="` + transport + `",peer="` + strconv.Itoa(p) + `"}`
		m.peerSent = append(m.peerSent, reg.Counter("adr_rpc_peer_sent_bytes_total"+plbl))
		m.peerRecv = append(m.peerRecv, reg.Counter("adr_rpc_peer_recv_bytes_total"+plbl))
		m.peerUp = append(m.peerUp, reg.Gauge("adr_rpc_peer_up"+plbl))
		m.peerInflight = append(m.peerInflight, reg.Gauge("adr_rpc_inflight_bytes"+plbl))
	}
	return m
}

func (m *meters) sent(peer NodeID, payloadBytes int) {
	m.sentMsgs.Inc()
	m.sentBytes.Add(int64(payloadBytes))
	m.peerSent[peer].Add(int64(payloadBytes))
}

func (m *meters) recv(peer NodeID, payloadBytes int) {
	m.recvMsgs.Inc()
	m.recvBytes.Add(int64(payloadBytes))
	m.peerRecv[peer].Add(int64(payloadBytes))
}

// inflight moves the per-peer in-flight gauge by delta bytes (positive on
// credit acquisition, negative when credit returns or is reclaimed).
func (m *meters) inflight(peer NodeID, delta int64) {
	m.peerInflight[peer].Add(delta)
}

// peakInflight ratchets the transport's in-flight high-water gauge up to v.
// inproc shares one meters across every endpoint, so concurrent senders race
// here; Gauge.Max keeps the mark monotonic.
func (m *meters) peakInflight(v int64) { m.inflightPeak.Max(v) }

// stall counts one send that blocked waiting for flow-control credit.
func (m *meters) stall() { m.creditStalls.Inc() }

// up marks a peer's connection live.
func (m *meters) up(peer NodeID) { m.peerUp[peer].Set(1) }

// down marks a peer's connection dead and counts the failure.
func (m *meters) down(peer NodeID) {
	m.peerUp[peer].Set(0)
	m.peerFailures.Inc()
}
