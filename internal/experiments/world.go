package experiments

import (
	"fmt"
	"os"
	"path/filepath"

	"mptcpgo/internal/core"
	"mptcpgo/internal/netem"
	"mptcpgo/internal/pool"
	"mptcpgo/internal/probe"
	"mptcpgo/internal/sim"
	"mptcpgo/internal/trace"
)

// World is one simulated testbed: a simulator, the emulated network, one
// MPTCP stack per host and the run's observers, none of it shared with
// another world. Every figure point, every fleet shard (fleet.Shard embeds
// it) and the facade's Network run on one, so the flush rule and the
// observer attachment live here once.
type World struct {
	Sim      *sim.Simulator
	Net      *netem.Network
	Managers map[string]*core.Manager

	// Capture is the wire capture (nil without one). The stacks emit only
	// wire-expressible segments, so a nonzero EncodeErrors is an emulator bug.
	Capture *trace.PcapWriter
	// Probe is the flight recorder (nil when the run is not traced; every
	// Recorder method is nil-safe).
	Probe *probe.Recorder
}

// NewWorld builds a world from a graph spec: a fresh simulator seeded with
// seed, the network, one MPTCP stack per host, and the observers, attached
// before anything runs so they see every segment and event from t=0:
//
//   - Wire capture, when pcapDir is non-empty: <pcapDir>/<name>.pcap holds
//     every segment any of the network's paths accepted, both directions,
//     stamped with sim-time. Taps write through the unified wire codec and
//     never touch the segment. A network without paths (links attached after
//     the build, like fig11's bond) has nothing to tap and writes no file.
//   - Flight recorder, when tr is enabled: one probe.Recorder over the
//     members [lo, lo+members), running inside the simulator. Its own timer
//     events are self-counted, and WriteTraceFiles writes its files once the
//     run ends.
//
// Both only read, so attaching them cannot change a result. On error nothing
// has run and there is nothing to stop.
func NewWorld(seed uint64, spec netem.GraphSpec, pcapDir string, tr TraceSpec, name string, lo, members int) (World, error) {
	s := sim.New(seed)
	n, err := netem.BuildGraph(s, spec)
	if err != nil {
		return World{}, err
	}
	w := World{Sim: s, Net: n, Managers: make(map[string]*core.Manager, len(n.Hosts))}
	for _, h := range n.Hosts {
		w.Managers[h.Name()] = core.NewManager(h)
	}
	if pcapDir != "" && len(n.Paths) > 0 {
		if err := os.MkdirAll(pcapDir, 0o755); err != nil {
			return World{}, fmt.Errorf("capture: %w", err)
		}
		c, err := trace.NewPcapFile(filepath.Join(pcapDir, name+".pcap"))
		if err != nil {
			return World{}, fmt.Errorf("capture: %w", err)
		}
		w.Capture = c
		trace.CapturePaths(c, s.Now, n.Paths...)
	}
	if tr.Enabled() {
		w.Probe = probe.NewRecorder(s, lo, members, tr.ProbeInterval)
	}
	return w, nil
}

// Stop is what whoever stops stepping the simulator calls: the buffers its
// pool front holds go back to the shared classes, and the capture is flushed
// and closed, its error the run's; a world with a capture is not stepped
// again. Stop is idempotent and a no-op on the zero World, so callers defer
// it on every path and call it once more for the error.
func (w *World) Stop() error {
	if w.Sim == nil {
		return nil
	}
	sim.Local[pool.Local](w.Sim).Flush()
	if w.Capture == nil {
		return nil
	}
	return w.Capture.Close()
}

// pointName names the observer files of sweep point i of experiment id:
// <PcapDir>/<id>-<NN>.pcap, <Trace.Dir>/<id>-<NN>-trace.json and
// <Trace.Dir>/<id>-<NN>-events.jsonl.
func pointName(id string, i int) string { return fmt.Sprintf("%s-%02d", id, i) }

// finishPoint ends a figure point's world and writes its flight-recorder
// files. A capture that skipped a segment fails the point like one that
// failed to flush.
func finishPoint(w *World, seed uint64, obs Options, name string) error {
	if err := w.Stop(); err != nil {
		return err
	}
	if w.Capture != nil && w.Capture.EncodeErrors > 0 {
		return fmt.Errorf("%s: %d segments the wire codec rejected", name, w.Capture.EncodeErrors)
	}
	return WriteTraceFiles(obs.Trace, name, name, seed, false, []*probe.Recorder{w.Probe})
}
