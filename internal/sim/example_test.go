package sim_test

import (
	"fmt"

	"gpuvirt/internal/sim"
)

// Two processes coordinate through an event in virtual time.
func Example() {
	env := sim.NewEnv()
	ready := env.NewEvent()

	env.Go(func(p *sim.Proc) {
		p.Sleep(10 * sim.Millisecond)
		ready.Fire("payload")
	})
	env.Go(func(p *sim.Proc) {
		v := p.Wait(ready)
		fmt.Printf("consumer got %q at %v\n", v, p.Now())
	})

	if err := env.Run(); err != nil {
		panic(err)
	}
	// Output: consumer got "payload" at 10ms
}

// A capacity-2 resource admits two holders at once; the third waits.
func ExampleResource() {
	env := sim.NewEnv()
	r := env.NewResource(2)
	for i := 0; i < 3; i++ {
		i := i
		env.Go(func(p *sim.Proc) {
			r.Acquire(p, 1)
			p.Sleep(5 * sim.Millisecond)
			r.Release(1)
			fmt.Printf("user %d done at %v\n", i, p.Now())
		})
	}
	if err := env.Run(); err != nil {
		panic(err)
	}
	// Output:
	// user 0 done at 5ms
	// user 1 done at 5ms
	// user 2 done at 10ms
}
