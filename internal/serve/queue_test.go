package serve

import (
	"fmt"
	"sync"
	"testing"
)

func testJob(id string, class Class) *Job {
	return &Job{ID: id, Class: class, done: make(chan struct{})}
}

func TestQueuePriorityAndFIFO(t *testing.T) {
	q := newQueue([2]int{})
	q.Push(testJob("b1", ClassBulk))
	q.Push(testJob("i1", ClassInteractive))
	q.Push(testJob("b2", ClassBulk))
	q.Push(testJob("i2", ClassInteractive))

	// Strict priority between classes, FIFO within a class.
	want := []string{"i1", "i2", "b1", "b2"}
	for _, id := range want {
		j, ok := q.Pop()
		if !ok || j.ID != id {
			t.Fatalf("Pop = %v/%v, want %s", j, ok, id)
		}
	}
	if i, b := q.Depths(); i != 0 || b != 0 {
		t.Fatalf("depths = %d/%d after drain", i, b)
	}
}

func TestQueueCloseDrains(t *testing.T) {
	q := newQueue([2]int{})
	q.Push(testJob("j1", ClassInteractive))
	q.Push(testJob("j2", ClassBulk))
	q.Close()

	if err := q.Push(testJob("late", ClassInteractive)); err != errQueueClosed {
		t.Fatalf("Push after Close = %v, want errQueueClosed", err)
	}
	// Close drains: queued jobs still come out, then ok=false forever.
	for _, id := range []string{"j1", "j2"} {
		j, ok := q.Pop()
		if !ok || j.ID != id {
			t.Fatalf("drain Pop = %v/%v, want %s", j, ok, id)
		}
	}
	if _, ok := q.Pop(); ok {
		t.Fatal("Pop reported ok on a closed empty queue")
	}
}

func TestQueueCloseWakesBlockedPop(t *testing.T) {
	q := newQueue([2]int{})
	done := make(chan bool)
	go func() {
		_, ok := q.Pop()
		done <- ok
	}()
	q.Close()
	if ok := <-done; ok {
		t.Fatal("blocked Pop returned a job from an empty closed queue")
	}
}

// TestQueueConcurrent pushes from many producers while consumers drain,
// checking nothing is lost or duplicated.
func TestQueueConcurrent(t *testing.T) {
	q := newQueue([2]int{})
	const producers, perProducer = 8, 50
	var wg sync.WaitGroup
	for p := 0; p < producers; p++ {
		wg.Add(1)
		go func(p int) {
			defer wg.Done()
			for i := 0; i < perProducer; i++ {
				cls := ClassInteractive
				if i%2 == 0 {
					cls = ClassBulk
				}
				q.Push(testJob(fmt.Sprintf("p%d-%d", p, i), cls))
			}
		}(p)
	}

	seen := make(chan string, producers*perProducer)
	var cwg sync.WaitGroup
	for c := 0; c < 4; c++ {
		cwg.Add(1)
		go func() {
			defer cwg.Done()
			for {
				j, ok := q.Pop()
				if !ok {
					return
				}
				seen <- j.ID
			}
		}()
	}
	wg.Wait()
	q.Close()
	cwg.Wait()
	close(seen)

	got := map[string]bool{}
	for id := range seen {
		if got[id] {
			t.Fatalf("job %s dequeued twice", id)
		}
		got[id] = true
	}
	if len(got) != producers*perProducer {
		t.Fatalf("dequeued %d jobs, want %d", len(got), producers*perProducer)
	}
}

// TestJobFIFOCompaction pushes/pops enough to trigger the amortized
// head compaction and checks order is preserved across it.
func TestJobFIFOCompaction(t *testing.T) {
	var f jobFIFO
	next := 0
	popped := 0
	for round := 0; round < 10; round++ {
		for i := 0; i < 30; i++ {
			f.push(testJob(fmt.Sprintf("%d", next), ClassInteractive))
			next++
		}
		for i := 0; i < 25; i++ {
			j := f.pop()
			if j == nil {
				t.Fatalf("pop %d returned nil with %d queued", popped, f.len())
			}
			if want := fmt.Sprintf("%d", popped); j.ID != want {
				t.Fatalf("pop %d = %s, want %s", popped, j.ID, want)
			}
			popped++
		}
	}
	for f.len() > 0 {
		j := f.pop()
		if want := fmt.Sprintf("%d", popped); j.ID != want {
			t.Fatalf("tail pop %d = %s, want %s", popped, j.ID, want)
		}
		popped++
	}
	if popped != next {
		t.Fatalf("popped %d, pushed %d", popped, next)
	}
	if f.pop() != nil {
		t.Fatal("pop on empty fifo returned a job")
	}
}
