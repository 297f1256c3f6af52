package main

import (
	"fmt"
	"net"
	"os"
	"path/filepath"
	"time"

	"semagent/internal/chat"
	"semagent/internal/cluster"
	"semagent/internal/core"
	"semagent/internal/journal"
	"semagent/internal/memnet"
)

// relayEchoes is how many lines each path of the cluster pass sends.
const relayEchoes = 400

type clusterFigures struct {
	relayUs float64
	lagMax  uint64
}

// startNode launches one fabric node the way cmd/gateway does: a
// journaled supervision stack with the WAL-shipping hook, serving the
// chat protocol in memory with asynchronous supervision.
func startNode(id cluster.NodeID, dir string, onSync func(uint64)) (*cluster.NodeHandle, error) {
	stores, err := journal.LoadStores(dir)
	if err != nil {
		return nil, fmt.Errorf("node %s: %w", id, err)
	}
	mgr, err := journal.Open(dir, stores, journal.Options{OnSync: onSync})
	if err != nil {
		return nil, fmt.Errorf("node %s: %w", id, err)
	}
	sup, err := core.New(core.Config{Ontology: stores.Ontology, Corpus: stores.Corpus, Profiles: stores.Profiles, FAQ: stores.FAQ})
	if err != nil {
		mgr.Abandon()
		return nil, fmt.Errorf("node %s: %w", id, err)
	}
	srv := chat.NewServer(chat.ServerOptions{Supervisor: sup.ChatSupervisor(), Async: true})
	ln := memnet.NewListener()
	srv.Serve(ln)
	return &cluster.NodeHandle{
		Dial: func() (net.Conn, error) { return ln.Dial() },
		Idle: srv.Idle,
		Kill: func() error {
			err := srv.Close()
			mgr.Abandon()
			return err
		},
		Stop: func() error {
			err := srv.Close()
			if cerr := mgr.Close(); err == nil {
				err = cerr
			}
			return err
		},
		Stats: mgr.Stats,
	}, nil
}

// clusterPass measures the gateway relay in-process: a learner joined
// through the Gateway and one joined straight to the same node's chat
// server take turns saying the workload's lines and time each echo.
// The difference of the medians is the relay's cost; the fabric's ship
// lag is sampled after every echo.
func clusterPass(o options, sp spec, lines []line) (f clusterFigures, err error) {
	dir := filepath.Join(o.work, "cluster-pass")
	if err := os.RemoveAll(dir); err != nil {
		return f, err
	}
	defer os.RemoveAll(dir)
	fab, err := cluster.NewFabric(cluster.FabricConfig{Nodes: 2, Lease: time.Minute, BaseDir: dir, Start: startNode})
	if err != nil {
		return f, err
	}
	defer func() {
		if cerr := fab.Close(); cerr != nil && err == nil {
			err = cerr
		}
	}()
	gw := cluster.NewGateway(fab, nil)
	ln := memnet.NewListener()
	gw.Serve(ln)
	defer gw.Close()

	room := sp.rooms[0]
	gc, err := ln.Dial()
	if err != nil {
		return f, err
	}
	relayed, err := joinConn(gc, room, "relayed", phaseTimeout)
	if err != nil {
		return f, err
	}
	defer relayed.close()
	own, err := fab.Owner(room)
	if err != nil {
		return f, err
	}
	// The direct learner sits in another room of the same node, so each
	// echo is delivered to its own sender only.
	var other string
	for i := 0; other == ""; i++ {
		name := fmt.Sprintf("%s-side-%d", room, i)
		o, err := fab.Owner(name)
		if err != nil {
			return f, err
		}
		if o.Node == own.Node {
			other = name
		}
	}
	nc, err := fab.DialNode(own.Node)
	if err != nil {
		return f, err
	}
	direct, err := joinConn(nc, other, "direct", phaseTimeout)
	if err != nil {
		return f, err
	}
	defer direct.close()

	var rtt [2][]float64
	for i := 0; i < 2*relayEchoes; i++ {
		c := [2]*client{relayed, direct}[i%2]
		want := c.echoes.Load() + 1
		t0 := time.Now()
		if err := c.say(lines[i%len(lines)].text); err != nil {
			return f, err
		}
		if err := c.awaitEchoes(want, phaseTimeout); err != nil {
			return f, err
		}
		rtt[i%2] = append(rtt[i%2], float64(time.Since(t0))/1e3)
		// Let the node finish supervising the line before the next echo
		// is timed, so both paths are timed on an idle node.
		if err := c.say(barrierLine); err != nil {
			return f, err
		}
		if _, err := c.awaitBarrier(phaseTimeout); err != nil {
			return f, err
		}
		for _, h := range fab.Health() {
			if h.Lag > f.lagMax {
				f.lagMax = h.Lag
			}
		}
	}
	f.relayUs = median(rtt[0]) - median(rtt[1])
	return f, nil
}
