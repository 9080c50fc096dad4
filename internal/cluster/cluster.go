// Package cluster groups kernels for task partitioning, the DWB
// consumer the paper feeds: "some relevant kernels are clustered together
// in a sense that the intra-cluster communication is maximized whereas
// the inter-cluster communication is minimized."
//
// The algorithm is bottom-up agglomerative merging over a kernel
// similarity that combines QUAD communication volume (bytes exchanged
// between two kernels, both directions) and tQUAD co-activity (Jaccard
// overlap of the slices in which the kernels touch memory).  Merging
// stops when the requested cluster count is reached or no pair exceeds
// the similarity floor.
package cluster

import (
	"sort"

	"tquad/internal/core"
	"tquad/internal/quad"
)

// Options tune the clustering.
type Options struct {
	// TargetClusters stops merging when this many clusters remain
	// (0 means merge purely by threshold).
	TargetClusters int
	// MinSimilarity is the floor below which clusters are never merged.
	MinSimilarity float64
	// CommWeight balances communication volume against co-activity
	// (0..1; default 0.6).
	CommWeight float64
	// IncludeStack selects the traffic used for co-activity.
	IncludeStack bool
}

func (o *Options) setDefaults() {
	if o.CommWeight == 0 {
		o.CommWeight = 0.6
	}
	if o.MinSimilarity == 0 {
		o.MinSimilarity = 0.05
	}
}

// Cluster is one group of kernels.
type Cluster struct {
	Kernels []string // sorted
	// IntraBytes is the communication volume between members.
	IntraBytes uint64
}

// Result is the clustering outcome.
type Result struct {
	Clusters []Cluster
	// InterBytes is the total communication crossing cluster borders.
	InterBytes uint64
}

// Build clusters the kernels named in the tQUAD profile using the QUAD
// report's bindings.  Either input may cover more kernels than the other;
// the union is clustered.
func Build(prof *core.Profile, rep *quad.Report, opts Options) *Result {
	opts.setDefaults()

	// Collect the kernel universe.
	idx := make(map[string]int)
	var names []string
	add := func(n string) {
		if n == "" {
			return
		}
		if _, ok := idx[n]; !ok {
			idx[n] = len(names)
			names = append(names, n)
		}
	}
	for _, k := range prof.Kernels {
		add(k.Name)
	}
	for _, b := range rep.Bindings {
		add(b.Producer)
		add(b.Consumer)
	}
	n := len(names)
	if n == 0 {
		return &Result{}
	}

	// Symmetric communication matrix.
	comm := make([][]uint64, n)
	for i := range comm {
		comm[i] = make([]uint64, n)
	}
	var maxComm uint64
	for _, b := range rep.Bindings {
		if b.Producer == "" || b.Producer == b.Consumer {
			continue
		}
		i, j := idx[b.Producer], idx[b.Consumer]
		comm[i][j] += b.Bytes
		comm[j][i] += b.Bytes
		if comm[i][j] > maxComm {
			maxComm = comm[i][j]
		}
	}

	// Activity slice sets for co-activity similarity.
	slices := make([]map[uint64]bool, n)
	for i := range slices {
		slices[i] = map[uint64]bool{}
	}
	for _, k := range prof.Kernels {
		i, ok := idx[k.Name]
		if !ok {
			continue
		}
		for _, pt := range k.Points {
			if pt.Total(opts.IncludeStack) > 0 {
				slices[i][pt.Slice] = true
			}
		}
	}

	// Kernel-pair similarity, computed once: a pair's communication and
	// co-activity never change while clusters merge.
	pair := make([][]float64, n)
	for i := range pair {
		pair[i] = make([]float64, n)
	}
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			var c float64
			if maxComm > 0 {
				c = float64(comm[i][j]) / float64(maxComm)
			}
			co := jaccard(slices[i], slices[j])
			pair[i][j] = opts.CommWeight*c + (1-opts.CommWeight)*co
			pair[j][i] = pair[i][j]
		}
	}

	sim := func(a, b []int) float64 {
		// Cluster-to-cluster similarity: max pairwise.
		best := 0.0
		for _, i := range a {
			for _, j := range b {
				if s := pair[i][j]; s > best {
					best = s
				}
			}
		}
		return best
	}

	// Agglomerate.
	clusters := make([][]int, n)
	for i := range clusters {
		clusters[i] = []int{i}
	}
	for {
		if opts.TargetClusters > 0 && len(clusters) <= opts.TargetClusters {
			break
		}
		bi, bj, best := -1, -1, opts.MinSimilarity
		for i := 0; i < len(clusters); i++ {
			for j := i + 1; j < len(clusters); j++ {
				if s := sim(clusters[i], clusters[j]); s > best {
					bi, bj, best = i, j, s
				}
			}
		}
		if bi < 0 {
			break
		}
		clusters[bi] = append(clusters[bi], clusters[bj]...)
		clusters = append(clusters[:bj], clusters[bj+1:]...)
	}

	// Materialise.
	res := &Result{}
	clusterOf := make([]int, n)
	for ci, members := range clusters {
		for _, m := range members {
			clusterOf[m] = ci
		}
	}
	for _, members := range clusters {
		c := Cluster{}
		for _, m := range members {
			c.Kernels = append(c.Kernels, names[m])
		}
		sort.Strings(c.Kernels)
		for a := 0; a < len(members); a++ {
			for b := a + 1; b < len(members); b++ {
				c.IntraBytes += comm[members[a]][members[b]]
			}
		}
		res.Clusters = append(res.Clusters, c)
	}
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			if clusterOf[i] != clusterOf[j] {
				res.InterBytes += comm[i][j]
			}
		}
	}
	sort.Slice(res.Clusters, func(i, j int) bool {
		if len(res.Clusters[i].Kernels) != len(res.Clusters[j].Kernels) {
			return len(res.Clusters[i].Kernels) > len(res.Clusters[j].Kernels)
		}
		return res.Clusters[i].Kernels[0] < res.Clusters[j].Kernels[0]
	})
	return res
}

func jaccard(a, b map[uint64]bool) float64 {
	if len(a) == 0 && len(b) == 0 {
		return 0
	}
	inter := 0
	for s := range a {
		if b[s] {
			inter++
		}
	}
	union := len(a) + len(b) - inter
	if union == 0 {
		return 0
	}
	return float64(inter) / float64(union)
}
