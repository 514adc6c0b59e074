package bench

import "testing"

// TestChaosPopulateSurvivesMediaErrors runs E16 at seeds whose injected
// media errors outlast the initiator's retries during the populate
// phase. Populate is setup, not measurement: it must retry until every
// block is written, and each nvmeof row still measures all 300 reads.
func TestChaosPopulateSurvivesMediaErrors(t *testing.T) {
	for _, seed := range []uint64{107, 168} {
		r := Chaos(seed)
		rows := 0
		for _, row := range r.Table.Rows {
			if row[0] != "nvmeof/rdma" {
				continue
			}
			rows++
			if row[2] != "300" {
				t.Fatalf("seed %d, fault rate %s: ops = %s, want 300", seed, row[1], row[2])
			}
		}
		if rows != len(chaosRates) {
			t.Fatalf("seed %d: %d nvmeof rows, want %d", seed, rows, len(chaosRates))
		}
	}
}
