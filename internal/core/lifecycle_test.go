package core

import (
	"context"
	"errors"
	"runtime"
	"sync"
	"testing"
	"time"

	"verticadr/internal/algos"
	"verticadr/internal/faults"
	"verticadr/internal/verr"
)

func tinyGLM(intercept float64) *algos.GLMModel {
	return &algos.GLMModel{Family: algos.Gaussian, Coefficients: []float64{intercept, 1}, Converged: true}
}

// TestDeployAfterCloseIsErrClosed: deploy is a session operation like any
// other — after Close it fails fast, typed.
func TestDeployAfterCloseIsErrClosed(t *testing.T) {
	s, err := Start(Config{DBNodes: 2, DRWorkers: 2})
	if err != nil {
		t.Fatal(err)
	}
	if err := s.DeployModel("m", "me", "", tinyGLM(1)); err != nil {
		t.Fatal(err)
	}
	s.Close()
	if err := s.DeployModel("late", "me", "", tinyGLM(2)); !errors.Is(err, verr.ErrClosed) {
		t.Fatalf("DeployModel after Close: %v, want ErrClosed", err)
	}
}

// stallOnce is a fault checker that parks the first caller reaching site
// until release is closed, announcing it on entered.
type stallOnce struct {
	site             string
	once             sync.Once
	entered, release chan struct{}
}

func (c *stallOnce) Check(site string) error {
	if site == c.site {
		c.once.Do(func() {
			close(c.entered)
			<-c.release
		})
	}
	return nil
}

// TestCloseDrainsDeployInFlight: Close waits for a deploy that is between
// its blob write and its R_Models row, instead of closing the log under it.
func TestCloseDrainsDeployInFlight(t *testing.T) {
	s, err := Start(Config{DBNodes: 2, DRWorkers: 2, Durable: true, DataDir: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	stall := &stallOnce{site: faults.SiteWALAppend, entered: make(chan struct{}), release: make(chan struct{})}
	faults.Install(stall)
	defer faults.Install(nil)

	deployDone := make(chan error, 1)
	go func() { deployDone <- s.DeployModel("m", "me", "", tinyGLM(1)) }()
	<-stall.entered // the deploy is journaling its blob

	closeDone := make(chan struct{})
	go func() { s.Close(); close(closeDone) }()
	// Close has begun once new work is refused.
	for {
		if _, err := s.QueryContext(context.Background(), `SELECT 1`); errors.Is(err, verr.ErrClosed) {
			break
		}
		runtime.Gosched()
	}
	select {
	case <-closeDone:
		t.Fatal("Close returned while a deploy was in flight")
	default:
	}
	close(stall.release)
	<-closeDone
	// The check above proves Close waited; the deploy's goroutine may send
	// its result a moment after Close returns.
	select {
	case err := <-deployDone:
		if err != nil {
			t.Fatalf("drained deploy failed: %v", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("the drained deploy never returned")
	}
}
