package withtest

import "testing"

func TestSum(t *testing.T) {
	m := map[string]int{"a": 1, "b": 2}
	var keys []string
	for k := range m { // want `range over map m in deterministic package`
		keys = append(keys, k)
	}
	if Sum(m) != 3 || len(keys) != 2 {
		t.Fatal("sum")
	}
}
