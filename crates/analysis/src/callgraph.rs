//! A conservative whole-workspace call graph over the [`crate::model`]
//! function models.
//!
//! Resolution is by bare callee name: a call site `shard(…)` is deemed to
//! reach *every* workspace function named `shard`, whatever its type. That
//! over-approximates (unrelated same-named methods become edges) and never
//! under-approximates within first-party code — the right bias for every
//! consumer: the concurrency rules want every lock a callee *might* take,
//! and the panic-path and resource-bound rules want every panic or
//! recursion a fallible entry point *might* reach. Calls into `std` or
//! vendored dependencies resolve to nothing and are ignored.

use std::collections::{BTreeMap, VecDeque};

use crate::model::{FunctionModel, SourceModel};

/// A lock's identity: the file it is acquired in plus its normalized
/// receiver path. Scoping identity by file keeps same-named fields in
/// different modules (genuinely different `Mutex` instances) distinct.
pub type LockId = (String, String);

/// Renders a lock identity for diagnostics (`file:path`).
pub fn lock_id_display(id: &LockId) -> String {
    format!("{}:{}", id.0, id.1)
}

/// The resolved graph: adjacency by function index into
/// [`SourceModel::functions`].
pub struct CallGraph<'m> {
    model: &'m SourceModel,
    /// For each function, the distinct callee indices it may reach
    /// directly, each with the first call line (sorted by callee index).
    edges: Vec<Vec<(usize, usize)>>,
    /// Function indices by bare name.
    by_name: BTreeMap<&'m str, Vec<usize>>,
}

impl<'m> CallGraph<'m> {
    /// Builds the graph by name resolution over the model.
    pub fn build(model: &'m SourceModel) -> Self {
        let mut by_name: BTreeMap<&str, Vec<usize>> = BTreeMap::new();
        for (i, f) in model.functions.iter().enumerate() {
            by_name.entry(f.name.as_str()).or_default().push(i);
        }
        let mut edges: Vec<Vec<(usize, usize)>> = Vec::with_capacity(model.functions.len());
        for f in &model.functions {
            let mut out: BTreeMap<usize, usize> = BTreeMap::new();
            for call in &f.calls {
                if let Some(targets) = by_name.get(call.name.as_str()) {
                    for &t in targets {
                        out.entry(t).or_insert(call.line);
                    }
                }
            }
            edges.push(out.into_iter().collect());
        }
        CallGraph {
            model,
            edges,
            by_name,
        }
    }

    /// The underlying model.
    pub fn model(&self) -> &SourceModel {
        self.model
    }

    /// Function indices carrying the given bare name.
    pub fn functions_named(&self, name: &str) -> &[usize] {
        self.by_name.get(name).map(Vec::as_slice).unwrap_or(&[])
    }

    /// Direct callees of function `i`, with the first call line each.
    pub fn callees(&self, i: usize) -> &[(usize, usize)] {
        &self.edges[i]
    }

    /// For every function, the set of locks it may acquire *transitively*
    /// (its own sites plus everything reachable through calls), each with
    /// one example acquisition site (`file`, line) — the first found in
    /// canonical order.
    pub fn transitive_locks(&self) -> Vec<BTreeMap<LockId, (String, usize)>> {
        let n = self.model.functions.len();
        let mut acc: Vec<BTreeMap<LockId, (String, usize)>> = vec![BTreeMap::new(); n];
        for (i, f) in self.model.functions.iter().enumerate() {
            for l in &f.locks {
                let id = (f.file.clone(), l.path.clone());
                acc[i].entry(id).or_insert((f.file.clone(), l.line));
            }
        }
        // Fixpoint propagation callee → caller. The graph is small (a few
        // hundred functions), so the quadratic worst case is immaterial.
        loop {
            let mut changed = false;
            for i in 0..n {
                for (callee, _) in self.edges[i].clone() {
                    if callee == i {
                        continue;
                    }
                    let callee_locks = acc[callee].clone();
                    for (id, site) in callee_locks {
                        if let std::collections::btree_map::Entry::Vacant(slot) = acc[i].entry(id) {
                            slot.insert(site);
                            changed = true;
                        }
                    }
                }
            }
            if !changed {
                break;
            }
        }
        acc
    }

    /// Breadth-first reachability from the given root functions, with
    /// parent pointers for shortest-chain reconstruction. Roots are
    /// visited in the given order, so ties resolve deterministically.
    ///
    /// Returns `(reached, parent, root_of)`: for each function, whether it
    /// is reachable, its BFS predecessor, and the root it was first
    /// reached from.
    pub fn reach_from(
        &self,
        roots: &[usize],
    ) -> (Vec<bool>, Vec<Option<usize>>, Vec<Option<usize>>) {
        let n = self.model.functions.len();
        let mut reached = vec![false; n];
        let mut parent: Vec<Option<usize>> = vec![None; n];
        let mut root_of: Vec<Option<usize>> = vec![None; n];
        let mut queue: VecDeque<usize> = VecDeque::new();
        for &r in roots {
            if !reached[r] {
                reached[r] = true;
                root_of[r] = Some(r);
                queue.push_back(r);
            }
        }
        while let Some(i) = queue.pop_front() {
            for &(callee, _) in &self.edges[i] {
                if !reached[callee] {
                    reached[callee] = true;
                    parent[callee] = Some(i);
                    root_of[callee] = root_of[i];
                    queue.push_back(callee);
                }
            }
        }
        (reached, parent, root_of)
    }

    /// The shortest root→`i` call chain as `name → name → …`, capped at
    /// `max_hops` names (elision shown as `…`).
    pub fn chain_to(&self, parent: &[Option<usize>], i: usize, max_hops: usize) -> String {
        let mut names: Vec<&str> = Vec::new();
        let mut cur = Some(i);
        while let Some(c) = cur {
            names.push(self.model.functions[c].name.as_str());
            cur = parent[c];
        }
        names.reverse();
        if names.len() > max_hops {
            let head = &names[..2];
            let tail = &names[names.len() - (max_hops - 3)..];
            format!("{} → … → {}", head.join(" → "), tail.join(" → "))
        } else {
            names.join(" → ")
        }
    }
}

/// A deterministic view of a function for messages: `file:line` location.
pub fn location(f: &FunctionModel) -> String {
    format!("{}:{}", f.file, f.line)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model;

    fn model_of(src: &str) -> SourceModel {
        let functions = model::model_file("lib.rs", src);
        SourceModel {
            functions,
            facts: Vec::new(),
            files: 1,
        }
    }

    #[test]
    fn edges_resolve_by_bare_name() {
        let m = model_of("fn a() { b(); missing(); }\nfn b() { }\n");
        let g = CallGraph::build(&m);
        let a = g.functions_named("a")[0];
        let b = g.functions_named("b")[0];
        assert_eq!(g.callees(a), &[(b, 1)]);
        assert!(g.callees(b).is_empty());
    }

    #[test]
    fn transitive_locks_propagate_up_call_chains() {
        let m = model_of(
            "fn leaf(&self) { let g = self.inner.lock().unwrap_or_else(PoisonError::into_inner); }\n\
             fn mid() { leaf(); }\n\
             fn top() { mid(); }\n",
        );
        let g = CallGraph::build(&m);
        let locks = g.transitive_locks();
        let top = g.functions_named("top")[0];
        let key = ("lib.rs".to_string(), "inner".to_string());
        assert!(locks[top].contains_key(&key), "{:?}", locks[top]);
        assert_eq!(lock_id_display(&key), "lib.rs:inner");
    }

    #[test]
    fn reachability_records_shortest_chains() {
        let m =
            model_of("fn root() { mid(); }\nfn mid() { leaf(); }\nfn leaf() { }\nfn off() { }\n");
        let g = CallGraph::build(&m);
        let root = g.functions_named("root")[0];
        let leaf = g.functions_named("leaf")[0];
        let off = g.functions_named("off")[0];
        let (reached, parent, root_of) = g.reach_from(&[root]);
        assert!(reached[leaf] && !reached[off]);
        assert_eq!(root_of[leaf], Some(root));
        assert_eq!(g.chain_to(&parent, leaf, 6), "root → mid → leaf");
    }

    #[test]
    fn long_chains_elide_in_the_middle() {
        let m = model_of(
            "fn f1() { f2(); }\nfn f2() { f3(); }\nfn f3() { f4(); }\nfn f4() { f5(); }\n\
             fn f5() { f6(); }\nfn f6() { f7(); }\nfn f7() { }\n",
        );
        let g = CallGraph::build(&m);
        let f1 = g.functions_named("f1")[0];
        let f7 = g.functions_named("f7")[0];
        let (_, parent, _) = g.reach_from(&[f1]);
        let chain = g.chain_to(&parent, f7, 6);
        assert!(chain.contains("…"), "{chain}");
        assert!(chain.starts_with("f1 → f2"), "{chain}");
        assert!(chain.ends_with("f7"), "{chain}");
    }
}
