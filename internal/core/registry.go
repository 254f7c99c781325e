package core

import (
	"fmt"
	"sync"

	"repro/internal/hw"
	"repro/internal/infer"
	"repro/internal/ml"
	"repro/internal/ml/bayes"
	"repro/internal/ml/linear"
	"repro/internal/ml/mlp"
	"repro/internal/ml/oner"
	"repro/internal/ml/rules"
	"repro/internal/ml/tree"
)

// CompileFunc lowers a trained classifier to a synthesizable netlist for
// the `emit` path. module is the requested Verilog module name; numAttrs
// the input feature count. Registered per classifier; models without one
// (NaiveBayes, MLP) cannot be emitted as combinational Verilog.
type CompileFunc func(module string, c ml.Classifier, numAttrs int) (*hw.Comb, error)

// registry is the process-wide classifier catalog plus the per-model
// netlist compilers. Both are populated once by init below; adding a
// model to every CLI command and figure runner is one register call.
var (
	registry    = ml.NewRegistry()
	compilersMu sync.RWMutex
	compilers   = map[string]CompileFunc{}
)

// register wires one classifier into the system: the generic spec
// (factory, study membership, display label) and, when the model has a
// hardware lowering, its netlist compiler.
func register(spec ml.Spec, compile CompileFunc) {
	registry.MustRegister(spec)
	if compile != nil {
		compilersMu.Lock()
		compilers[spec.Name] = compile
		compilersMu.Unlock()
	}
}

// The rule/tree learners carry hardware-oriented complexity caps
// (bounded intervals, leaves and rules): the paper implements every
// trained model on an FPGA, where each interval/node/condition is a
// physical comparator, so unbounded WEKA-default models on ~50k noisy
// rows would be unsynthesizable. The caps cost well under a point of
// accuracy on this data.
func init() {
	register(ml.Spec{
		Name: "OneR", Binary: true,
		Description: "one-rule classifier over the single best feature",
		New: func(seed uint64) ml.Classifier {
			o := oner.New()
			o.MaxIntervals = 16
			return o
		},
	}, func(module string, c ml.Classifier, numAttrs int) (*hw.Comb, error) {
		return hw.CompileOneR(c.(*oner.OneR), numAttrs)
	})
	register(ml.Spec{
		Name: "JRip", Binary: true,
		Description: "RIPPER rule induction (WEKA JRip)",
		New: func(seed uint64) ml.Classifier {
			j := rules.New()
			j.Seed = seed
			j.MaxRulesPerClass = 8
			return j
		},
	}, func(module string, c ml.Classifier, numAttrs int) (*hw.Comb, error) {
		return hw.CompileJRip(c.(*rules.JRip), numAttrs)
	})
	register(ml.Spec{
		Name: "J48", Binary: true,
		Description: "C4.5 decision tree (WEKA J48)",
		New: func(seed uint64) ml.Classifier {
			j := tree.NewJ48()
			j.MinLeaf = 50
			j.MaxDepth = 12
			return j
		},
	}, func(module string, c ml.Classifier, numAttrs int) (*hw.Comb, error) {
		return hw.CompileTree(c.(*tree.J48), numAttrs)
	})
	register(ml.Spec{
		Name: "REPTree", Binary: true,
		Description: "reduced-error-pruned decision tree",
		New: func(seed uint64) ml.Classifier {
			r := tree.NewREPTree()
			r.Seed = seed
			r.MinLeaf = 50
			r.MaxDepth = 12
			return r
		},
	}, func(module string, c ml.Classifier, numAttrs int) (*hw.Comb, error) {
		return hw.CompileTree(c.(*tree.REPTree), numAttrs)
	})
	register(ml.Spec{
		Name: "NaiveBayes", Binary: true,
		Description: "Gaussian naive Bayes over log-transformed counts",
		New: func(seed uint64) ml.Classifier {
			nb := bayes.New()
			nb.LogTransform = true
			return nb
		},
	}, nil)
	register(ml.Spec{
		Name: "Logistic", Label: "MLR", Binary: true, Multiclass: true,
		Description: "multinomial logistic regression (the paper's MLR)",
		New: func(seed uint64) ml.Classifier {
			lg := linear.NewLogistic()
			lg.Seed = seed
			return lg
		},
	}, func(module string, c ml.Classifier, numAttrs int) (*hw.Comb, error) {
		return hw.CompileLinear(module, c.(*linear.Logistic), numAttrs)
	})
	register(ml.Spec{
		Name: "SVM", Binary: true, Multiclass: true,
		Description: "linear SVM trained by Pegasos SGD",
		New: func(seed uint64) ml.Classifier {
			s := linear.NewSVM()
			s.Seed = seed
			return s
		},
	}, func(module string, c ml.Classifier, numAttrs int) (*hw.Comb, error) {
		return hw.CompileLinear(module, c.(*linear.SVM), numAttrs)
	})
	register(ml.Spec{
		Name: "MLP", Binary: true, Multiclass: true,
		Description: "one-hidden-layer perceptron (WEKA MultilayerPerceptron)",
		New: func(seed uint64) ml.Classifier {
			m := mlp.New()
			m.Seed = seed
			return m
		},
	}, nil)
}

// Classifiers exposes the registry (read-only use: Lookup, Names,
// NamesWhere) so CLI front ends can render the catalog.
func Classifiers() *ml.Registry { return registry }

// ClassifierNames lists the binary-study classifiers in the order the
// paper's Figure 13 presents them.
func ClassifierNames() []string {
	return registry.NamesWhere(func(s ml.Spec) bool { return s.Binary })
}

// MulticlassNames lists the classifiers the paper evaluates on the
// 6-class problem (Figure 17): MLR (Logistic), MLP and SVM.
func MulticlassNames() []string {
	return registry.NamesWhere(func(s ml.Spec) bool { return s.Multiclass })
}

// MulticlassLabel returns the display label the multiclass figures use
// for a classifier name (the paper labels Logistic "MLR").
func MulticlassLabel(name string) string {
	if s, ok := registry.Lookup(name); ok {
		return s.DisplayLabel()
	}
	return name
}

// NewClassifier builds a fresh classifier by name with paper-appropriate
// defaults. seed makes stochastic learners reproducible.
func NewClassifier(name string, seed uint64) (ml.Classifier, error) {
	c, err := registry.New(name, seed)
	if err != nil {
		return nil, fmt.Errorf("core: unknown classifier %q (have %v)", name, ClassifierNames())
	}
	return c, nil
}

// EmittableNames lists the classifiers that have a registered netlist
// compiler, in registration order.
func EmittableNames() []string {
	compilersMu.RLock()
	defer compilersMu.RUnlock()
	return registry.NamesWhere(func(s ml.Spec) bool {
		_, ok := compilers[s.Name]
		return ok
	})
}

// CompileDetector lowers a trained classifier to its combinational
// netlist using the compiler registered for name. The caller still owns
// module naming and fixed-point configuration on the returned Comb.
func CompileDetector(name, module string, c ml.Classifier, numAttrs int) (*hw.Comb, error) {
	compilersMu.RLock()
	compile, ok := compilers[name]
	compilersMu.RUnlock()
	if !ok {
		return nil, fmt.Errorf("core: %s has no hardware lowering (emittable: %v)",
			name, EmittableNames())
	}
	return compile(module, c, numAttrs)
}

// CompilableNames lists the classifiers the batch-inference engine
// (internal/infer) compiles, in registration order — the software
// counterpart of EmittableNames.
func CompilableNames() []string {
	return registry.NamesWhere(func(s ml.Spec) bool {
		return infer.Compilable(s.New(1))
	})
}
