// Package stalecfg is cfglive fodder for an exemption that resolves to
// nothing: config_exempt names Sim.Legacy, a field Sim no longer has.
package stalecfg // want `config_exempt entry "Sim\.Legacy" resolves to nothing`

type Sim struct {
	Depth int
}
