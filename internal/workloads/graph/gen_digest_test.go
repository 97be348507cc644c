package graph

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"testing"
)

// csrDigest hashes a host CSR's offsets and neighbour lists in order.
func csrDigest(h hostCSR) string {
	d := sha256.New()
	var b [8]byte
	for _, o := range h.off {
		binary.LittleEndian.PutUint64(b[:], o)
		d.Write(b[:])
	}
	for _, v := range h.nbr {
		binary.LittleEndian.PutUint32(b[:4], v)
		d.Write(b[:4])
	}
	return hex.EncodeToString(d.Sum(nil))
}

// TestGeneratorDigests pins the generated CSRs — plain and degree-
// relabelled — for both generators at two scales, so a change to how
// the edges are produced, symmetrized, sorted or relabelled cannot alter
// a graph unnoticed.
func TestGeneratorDigests(t *testing.T) {
	// Captured from the edge-list generator before edges were streamed.
	want := map[string]string{
		"urand-10":         "1b8522200e72dd726b8a7602d663991d952682444b2868dcbe67d1e62f0e7c41",
		"urand-10/relabel": "371c57c53b2f01d4c5797a85707338429e7145cbb5aea7abda6ba72fe9f77d1b",
		"urand-14":         "e7fa97c73d40834265c837e4cf89e8861eaa412feafb83cecf866bfa72788937",
		"urand-14/relabel": "f74fcc4762bc2dee52a5c5dbf9e5f65202fadacb5269cc18096a2899254a72ff",
		"kron-10":          "5018bb54b4816abd62916cd455f1b8095e7759b9f7dd59f5856adefb53ddf9f6",
		"kron-10/relabel":  "01eda38a10581c5daf1eca348856da8babd3e8f8dfa1870420890ca341531ca9",
		"kron-14":          "537d184cc1cda48e6c547935310cbc26c225c434b69be34d4b8051d559f9a4bc",
		"kron-14/relabel":  "39b8726f6290a824c25d150353c5a3283e7bd8aea03fdfacc9cc0653ba40b40b",
	}
	for _, gen := range []string{"urand", "kron"} {
		for _, scale := range []uint64{10, 14} {
			h := generateUncached(gen, scale)
			for name, g := range map[string]hostCSR{"": h, "/relabel": h.relabelByDegree()} {
				key := fmt.Sprintf("%s-%d%s", gen, scale, name)
				if got := csrDigest(g); got != want[key] {
					t.Errorf("%s: digest %s, want %s", key, got, want[key])
				}
			}
		}
	}
}
