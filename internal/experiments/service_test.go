package experiments

import "testing"

// TestService runs the front-end experiment at a small scale: the full
// thousand-tenant fleet, a fraction of the request budget. The experiment
// itself enforces gateway 429 accounting equal to the array's shed counter
// (TestSameAtWorkersAndReruns checks that two identical loads agree); the
// test checks the load actually flowed and both rejection layers fired.
func TestService(t *testing.T) {
	c := testConfig()
	c.IometerIOs = 25 // 10k requests; default 2500 drives the full 1M
	fig, err := Service(c)
	if err != nil {
		t.Fatalf("Service: %v", err)
	}
	m := fig.Metrics
	if m["load/tenants"] != 1000 {
		t.Fatalf("tenants = %v, want 1000", m["load/tenants"])
	}
	if m["load/issued"] < 10000 {
		t.Fatalf("issued = %v, want >= 10000", m["load/issued"])
	}
	if m["load/ok"] <= 0 || m["load/failed"] != 0 {
		t.Fatalf("ok=%v failed=%v", m["load/ok"], m["load/failed"])
	}
	if m["load/limited_429"] <= 0 {
		t.Fatalf("token-bucket 429 path never fired: %v", m)
	}
	if m["load/overloaded_429"] <= 0 {
		t.Fatalf("array admission-control 429 path never fired: %v", m)
	}
	if len(fig.Series) != 2 || len(fig.Series[0].Points) == 0 {
		t.Fatalf("figure series malformed: %+v", fig.Series)
	}
}
