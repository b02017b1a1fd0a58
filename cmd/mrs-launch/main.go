// mrs-launch starts a mrs program as one master process plus N slave
// processes on the local machine — the private-cluster launcher of
// §IV ("the script for private clusters starts the master and uses
// pssh to start slaves"), with fork/exec standing in for ssh. The
// master's address travels through a port file, exactly as in
// Program 3.
//
//	go build -o /tmp/wc ./examples/wordcount
//	mrs-launch -n 4 /tmp/wc -files 300
//
// With -submasters the launcher builds the hierarchical control plane
// instead of the flat star: it starts that many sub-master processes
// against the master, waits for each one's port file, and points the
// slaves at the sub-masters round-robin, so the master only ever
// talks to the middle tier:
//
//	mrs-launch -n 16 -submasters 4 /tmp/wc -files 300
//
// -drain speaks to an already-running master instead of launching
// anything: it takes one node (by id or advertised address, as shown
// by the master's /debug/status page) out of rotation, requeuing its
// leases immediately, and exits:
//
//	mrs-launch -master 10.0.0.1:40123 -drain 10.0.0.7:40200
package main

import (
	"flag"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"time"

	"repro/internal/rpcproto"
	"repro/internal/xmlrpc"
)

var (
	n          = flag.Int("n", 2, "number of slave processes")
	submasters = flag.Int("submasters", 0, "sub-master processes to interpose between master and slaves (0 = flat star)")
	timeout    = flag.Duration("timeout", 30*time.Second, "how long to wait for each port file")
	shared     = flag.String("shared", "", "shared directory for filesystem-staged data (optional)")
	masterAddr = flag.String("master", "", "running master's host:port (for -drain)")
	drain      = flag.String("drain", "", "drain this node (id or address) out of the -master fleet and exit")
)

func main() {
	flag.Parse()
	if *drain != "" {
		if err := drainNode(*masterAddr, *drain); err != nil {
			fmt.Fprintf(os.Stderr, "mrs-launch: %v\n", err)
			os.Exit(1)
		}
		return
	}
	if flag.NArg() < 1 {
		fmt.Fprintln(os.Stderr, "usage: mrs-launch [-n slaves] [-submasters k] <program> [program args...]")
		fmt.Fprintln(os.Stderr, "       mrs-launch -master <host:port> -drain <node-id-or-addr>")
		os.Exit(2)
	}
	if err := launch(flag.Arg(0), flag.Args()[1:]); err != nil {
		fmt.Fprintf(os.Stderr, "mrs-launch: %v\n", err)
		os.Exit(1)
	}
}

// drainNode asks a running master to take one node out of rotation.
// The node's leases requeue immediately and its next poll is told to
// shut down — elastic scale-down without waiting out a heartbeat
// timeout.
func drainNode(master, target string) error {
	if master == "" {
		return fmt.Errorf("-drain requires -master host:port")
	}
	client := xmlrpc.NewClient("http://" + master + xmlrpc.RPCPath)
	defer client.CloseIdle()
	started, err := client.Call(rpcproto.MethodDrain, target)
	if err != nil {
		return err // an unknown target is a fault at every tier
	}
	if started == false {
		fmt.Fprintf(os.Stderr, "mrs-launch: %s already draining\n", target)
		return nil
	}
	fmt.Fprintf(os.Stderr, "mrs-launch: draining %s\n", target)
	return nil
}

func launch(bin string, args []string) error {
	dir, err := os.MkdirTemp("", "mrs-launch-*")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	portFile := filepath.Join(dir, "master.port")

	// Start the master (the user's program in master mode). With a
	// sub-master tier the master's direct children are the sub-masters,
	// so that is what it waits for.
	minSlaves := *n
	if *submasters > 0 {
		minSlaves = *submasters
	}
	masterArgs := append([]string{
		"-mrs=master",
		"-mrs-portfile=" + portFile,
		fmt.Sprintf("-mrs-min-slaves=%d", minSlaves),
	}, args...)
	if *shared != "" {
		masterArgs = append([]string{"-mrs-shared=" + *shared}, masterArgs...)
	}
	master := exec.Command(bin, masterArgs...)
	master.Stdout = os.Stdout
	master.Stderr = os.Stderr
	if err := master.Start(); err != nil {
		return fmt.Errorf("starting master: %w", err)
	}

	// Wait for the port file (Program 3, step 3).
	addr, err := waitPortFile(portFile, *timeout)
	if err != nil {
		master.Process.Kill()
		master.Wait()
		return err
	}

	// With -submasters, interpose the middle tier: each sub-master
	// signs in to the master, writes its own port file, and the slaves
	// are dealt out round-robin below.
	var procs []*exec.Cmd
	controlAddrs := []string{addr}
	if *submasters > 0 {
		fmt.Fprintf(os.Stderr, "mrs-launch: master at %s; starting %d sub-masters\n", addr, *submasters)
		controlAddrs = nil
		for i := 0; i < *submasters; i++ {
			smPort := filepath.Join(dir, fmt.Sprintf("submaster%d.port", i))
			smArgs := append([]string{
				"-mrs=submaster",
				"-mrs-master=" + addr,
				"-mrs-portfile=" + smPort,
			}, args...)
			sm := exec.Command(bin, smArgs...)
			sm.Stdout = os.Stderr
			sm.Stderr = os.Stderr
			if err := sm.Start(); err != nil {
				master.Process.Kill()
				return fmt.Errorf("starting sub-master %d: %w", i, err)
			}
			procs = append(procs, sm)
			smAddr, err := waitPortFile(smPort, *timeout)
			if err != nil {
				master.Process.Kill()
				return fmt.Errorf("sub-master %d: %w", i, err)
			}
			controlAddrs = append(controlAddrs, smAddr)
		}
	}
	fmt.Fprintf(os.Stderr, "mrs-launch: starting %d slaves\n", *n)

	// Start the slaves (Program 3, step 4 — pssh/pbsdsh equivalent).
	// Each slave's control parent is the master, or its round-robin
	// sub-master when a middle tier exists.
	for i := 0; i < *n; i++ {
		parent := controlAddrs[i%len(controlAddrs)]
		slaveArgs := append([]string{"-mrs=slave", "-mrs-master=" + parent}, args...)
		if *shared != "" {
			slaveArgs = append([]string{"-mrs-shared=" + *shared}, slaveArgs...)
		}
		s := exec.Command(bin, slaveArgs...)
		s.Stdout = os.Stderr // keep program output (master stdout) clean
		s.Stderr = os.Stderr
		if err := s.Start(); err != nil {
			master.Process.Kill()
			return fmt.Errorf("starting slave %d: %w", i, err)
		}
		procs = append(procs, s)
	}

	masterErr := master.Wait()
	// Slaves and sub-masters exit on their own when told to shut down.
	for i, p := range procs {
		if err := p.Wait(); err != nil && masterErr == nil {
			fmt.Fprintf(os.Stderr, "mrs-launch: worker process %d: %v\n", i, err)
		}
	}
	return masterErr
}

func waitPortFile(path string, timeout time.Duration) (string, error) {
	deadline := time.Now().Add(timeout)
	for {
		data, err := os.ReadFile(path)
		if err == nil && len(data) > 0 {
			return strings.TrimSpace(string(data)), nil
		}
		if time.Now().After(deadline) {
			return "", fmt.Errorf("port file %s did not appear within %v", path, timeout)
		}
		time.Sleep(50 * time.Millisecond)
	}
}
