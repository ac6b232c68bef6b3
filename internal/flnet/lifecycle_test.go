package flnet

import (
	"context"
	"errors"
	"net"
	"testing"
	"time"

	"eefei/internal/dataset"
	"eefei/internal/fl"
)

// lifecycleCoordinator builds a minimal coordinator on a loopback listener
// for lifecycle edge-case tests.
func lifecycleCoordinator(t *testing.T, minReplies int) *Coordinator {
	t.Helper()
	dcfg := dataset.QuickSyntheticConfig()
	dcfg.Samples = 50
	test, err := dataset.Synthesize(dcfg)
	if err != nil {
		t.Fatalf("Synthesize: %v", err)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatalf("listen: %v", err)
	}
	coord, err := NewCoordinator(CoordinatorConfig{
		FL: fl.Config{
			ClientsPerRound: 1,
			LocalEpochs:     1,
			LearningRate:    0.5,
			Seed:            1,
		},
		Classes:      test.Classes,
		Features:     test.Dim(),
		RoundTimeout: 5 * time.Second,
		JoinTimeout:  30 * time.Second,
		MinReplies:   minReplies,
	}, ln, test)
	if err != nil {
		t.Fatalf("NewCoordinator: %v", err)
	}
	t.Cleanup(coord.Shutdown)
	return coord
}

func TestWaitForClientsContextCancelMidWait(t *testing.T) {
	coord := lifecycleCoordinator(t, 0)
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() { done <- coord.WaitForClients(ctx, 1) }()
	time.Sleep(20 * time.Millisecond) // let the wait actually start
	cancel()
	select {
	case err := <-done:
		if !errors.Is(err, context.Canceled) {
			t.Errorf("WaitForClients after cancel = %v, want context.Canceled", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("WaitForClients did not return after context cancel")
	}
}

// rawJoin registers a fake client over plain TCP and returns its conn. The
// fake never answers training requests, so a round against it hangs until
// something closes the connection.
func rawJoin(t *testing.T, addr string) net.Conn {
	t.Helper()
	conn, err := net.DialTimeout("tcp", addr, 5*time.Second)
	if err != nil {
		t.Fatalf("dial: %v", err)
	}
	if err := writeFrame(conn, MsgJoin, encodeJoin(10)); err != nil {
		t.Fatalf("join: %v", err)
	}
	if _, err := expectFrame(conn, MsgWelcome); err != nil {
		t.Fatalf("welcome: %v", err)
	}
	return conn
}

func TestShutdownWithRoundInFlight(t *testing.T) {
	coord := lifecycleCoordinator(t, 0)
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := coord.AwaitRoster(ctx, 0, time.Second); err != nil {
		t.Fatalf("start accept loop: %v", err)
	}
	conn := rawJoin(t, coord.Addr().String())
	defer conn.Close()
	if err := coord.AwaitRoster(ctx, 1, 5*time.Second); err != nil {
		t.Fatalf("AwaitRoster: %v", err)
	}

	done := make(chan error, 1)
	go func() {
		_, err := coord.Round(ctx)
		done <- err
	}()
	time.Sleep(50 * time.Millisecond) // round is now blocked on the mute client
	coord.Shutdown()
	select {
	case err := <-done:
		if err == nil {
			t.Error("round over a shutdown coordinator reported success")
		}
	case <-time.After(10 * time.Second):
		t.Fatal("Round did not unblock after Shutdown")
	}
}

func TestDoubleShutdown(t *testing.T) {
	coord := lifecycleCoordinator(t, 0)
	coord.Shutdown()
	coord.Shutdown() // must be idempotent, not panic on closed listener/conns
}

func TestRoundAfterShutdownErrors(t *testing.T) {
	coord := lifecycleCoordinator(t, 0)
	coord.Shutdown()
	if _, err := coord.Round(context.Background()); err == nil {
		t.Error("Round after Shutdown must error")
	}
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := coord.AwaitRoster(ctx, 1, time.Second); err == nil {
		t.Error("AwaitRoster after Shutdown must error")
	}
}

func TestJoinAfterShutdownRefused(t *testing.T) {
	coord := lifecycleCoordinator(t, 0)
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	coord.AwaitRoster(ctx, 0, time.Second)
	coord.Shutdown()
	dcfg := dataset.QuickSyntheticConfig()
	dcfg.Samples = 20
	shard, err := dataset.Synthesize(dcfg)
	if err != nil {
		t.Fatalf("Synthesize: %v", err)
	}
	if _, err := dial(EdgeConfig{
		Addr:        coord.Addr().String(),
		Shard:       shard,
		DialTimeout: 2 * time.Second,
	}); err == nil {
		t.Error("Dial against a shut-down coordinator must fail")
	}
}
