package gpusim

import "gpuvirt/internal/sim"

// Env returns the simulation environment the device lives in.
func (d *Device) Env() *sim.Env { return d.env }
