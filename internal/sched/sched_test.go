package sched

import (
	"testing"

	"achilles/internal/types"
)

// fakeMsg is a minimal types.Message for scheduler tests.
type fakeMsg struct{ n int }

func (m *fakeMsg) Type() string { return "test/fake" }
func (m *fakeMsg) Size() int    { return 8 }

func TestSyncRunsEverythingInline(t *testing.T) {
	s := NewSync()
	var order []string
	s.Bind(func(_ Lane, step func()) {
		order = append(order, "deliver")
		step()
	})
	s.Ingress(1, &fakeMsg{}, types.TraceContext{}, func() { order = append(order, "step") })
	s.Egress(func() { order = append(order, "egress") })
	s.Stop()
	want := []string{"deliver", "step", "egress"}
	if len(order) != len(want) {
		t.Fatalf("order = %v, want %v", order, want)
	}
	for i := range want {
		if order[i] != want[i] {
			t.Fatalf("order = %v, want %v", order, want)
		}
	}
}
