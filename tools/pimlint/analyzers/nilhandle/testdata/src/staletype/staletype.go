// Package staletype is nilhandle fodder for a registered handle type
// that resolves to nothing: nilhandle_types names Handle, the package
// only has Tracker, whose unguarded method is therefore unchecked.
package staletype // want `nilhandle_types entry "staletype\.Handle" resolves to nothing`

type Tracker struct{ n int }

func (t *Tracker) Inc() { t.n++ }
