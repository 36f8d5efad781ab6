//! Interprocedural lock-order analysis.
//!
//! Scoped to the crates named in `[analysis.lock-order]` (the job server).
//! Every mutex acquisition is expected to route through one configured
//! helper function (`lock_or_recover`); a raw `.lock()` anywhere else in a
//! scoped crate is itself a finding, which keeps the model faithful by
//! construction — the analysis only has to understand one call shape.
//!
//! Per function, the acquisition simulation walks the body tokens and
//! tracks which locks are held at each point:
//!
//! * `let g = lock_or_recover(&shared.jobs);` — a named guard, held until
//!   `drop(g)` or the end of its enclosing block;
//! * `lock_or_recover(&shared.jobs).field = …;` — a temporary guard, held
//!   until the next `;` at the same brace depth (matches Rust's
//!   statement-temporary scope; `match`/`if let` scrutinee temporaries
//!   live to the end of the statement too, so this is the conservative
//!   direction);
//! * the lock's *name* is the last identifier of the argument path
//!   (`&shared.jobs` → `jobs`, `&self.state` → `state`).
//!
//! Holding `a` while acquiring `b` — directly, or by calling a function
//! that transitively acquires `b` — records the order edge `a -> b`.
//! Transitive acquisition sets propagate through the workspace call graph
//! to a fixpoint, so the edges see through arbitrarily deep helpers. A
//! cycle among the order edges (including `a -> a`: re-entry on a
//! non-reentrant `std::sync::Mutex`) is reported as a potential deadlock,
//! anchored at the witnessing acquisition site.

use std::collections::{BTreeMap, BTreeSet};

use crate::config::Config;
use crate::lexer::{Tok, TokKind};
use crate::resolve::CallGraph;
use crate::scan::{Diagnostic, FileUnit};

const RULE: &str = "lock-order";

fn punct(t: &Tok, text: &str) -> bool {
    t.kind == TokKind::Punct && t.text == text
}

/// One lock currently held during the simulation walk.
struct Hold {
    /// Lock name (last ident of the acquisition argument path).
    name: String,
    /// Guard variable, if let-bound (`None` for statement temporaries).
    var: Option<String>,
    /// Brace depth at the binding site.
    depth: usize,
}

/// A `held -> acquired` order edge with its witness site.
#[derive(Debug)]
struct OrderEdge {
    from: String,
    to: String,
    /// File index of the witness.
    file: usize,
    line: u32,
    col: u32,
    /// Call path the acquisition went through, if not direct.
    via: Option<String>,
}

/// Per-function simulation result.
#[derive(Default)]
struct FnLocks {
    /// Locks acquired anywhere in the body.
    acquires: BTreeSet<String>,
    /// Direct `held -> acquired` pairs with witness positions.
    pairs: Vec<(String, String, u32, u32)>,
    /// Held-lock snapshot at each outgoing call edge, keyed by edge index.
    at_call: Vec<(usize, Vec<String>)>,
}

/// Walks one function body, tracking guard lifetimes.
fn simulate(toks: &[Tok], body: (usize, usize), helper: &str, edges_toks: &[usize]) -> FnLocks {
    let (lo, hi) = body;
    let hi = hi.min(toks.len());
    let mut out = FnLocks::default();
    if lo >= hi {
        return out;
    }
    let mut held: Vec<Hold> = Vec::new();
    let mut depth = 0usize;
    let mut next_edge = 0usize;
    let mut i = lo;
    while i < hi {
        let t = &toks[i];
        // Snapshot held locks at call sites (edge tok indices ascend).
        while next_edge < edges_toks.len() && edges_toks[next_edge] <= i {
            if edges_toks[next_edge] == i {
                out.at_call
                    .push((next_edge, held.iter().map(|h| h.name.clone()).collect()));
            }
            next_edge += 1;
        }
        if t.kind == TokKind::Punct {
            match t.text.as_str() {
                "{" => depth += 1,
                "}" => {
                    depth = depth.saturating_sub(1);
                    held.retain(|h| h.depth <= depth);
                }
                ";" => held.retain(|h| h.var.is_some() || h.depth < depth),
                _ => {}
            }
            i += 1;
            continue;
        }
        if t.kind == TokKind::Ident
            && t.text == "drop"
            && toks.get(i + 1).is_some_and(|n| punct(n, "("))
        {
            if let (Some(v), Some(close)) = (toks.get(i + 2), toks.get(i + 3)) {
                if v.kind == TokKind::Ident && punct(close, ")") {
                    held.retain(|h| h.var.as_deref() != Some(v.text.as_str()));
                    i += 4;
                    continue;
                }
            }
        }
        if t.kind == TokKind::Ident
            && t.text == helper
            && toks.get(i + 1).is_some_and(|n| punct(n, "("))
        {
            // Lock name: last ident inside the balanced argument list.
            let mut j = i + 2;
            let mut pdepth = 1usize;
            let mut name = String::new();
            while j < hi && pdepth > 0 {
                if toks[j].kind == TokKind::Punct {
                    match toks[j].text.as_str() {
                        "(" | "[" => pdepth += 1,
                        ")" | "]" => pdepth -= 1,
                        _ => {}
                    }
                } else if toks[j].kind == TokKind::Ident && pdepth >= 1 {
                    name = toks[j].text.clone();
                }
                j += 1;
            }
            if !name.is_empty() {
                for h in &held {
                    out.pairs
                        .push((h.name.clone(), name.clone(), t.line, t.col));
                }
                out.acquires.insert(name.clone());
                // Let-bound guard? `let [mut] var = helper(…)` or a plain
                // rebinding `var = helper(…)`. A method chain on the call
                // (`let n = helper(&m).len();`) binds the chain's *result*;
                // the guard itself is a statement temporary.
                let chained = toks.get(j).is_some_and(|n| punct(n, "."));
                let var = if !chained
                    && i >= 2
                    && punct(&toks[i - 1], "=")
                    && toks[i - 2].kind == TokKind::Ident
                {
                    let v = toks[i - 2].text.clone();
                    // A rebound variable releases its previous guard.
                    held.retain(|h| h.var.as_deref() != Some(v.as_str()));
                    Some(v)
                } else {
                    None
                };
                held.push(Hold { name, var, depth });
            }
            i = j;
            continue;
        }
        i += 1;
    }
    out
}

/// Inclusive line ranges of the helper's own definition(s) in a file —
/// the one place a raw `.lock()` is expected.
fn helper_line_ranges(unit: &FileUnit, helper: &str) -> Vec<(u32, u32)> {
    unit.parsed
        .fns
        .iter()
        .filter(|f| f.name == helper)
        .map(|f| {
            let end = unit
                .lexed
                .toks
                .get(f.body.1.saturating_sub(1))
                .map_or(f.line, |t| t.line);
            (f.line, end)
        })
        .collect()
}

/// Runs the lock-order analysis over the scoped crates.
pub(crate) fn lock_order_findings(
    graph: &CallGraph,
    units: &mut [FileUnit],
    cfg: &Config,
) -> Vec<Diagnostic> {
    let Some(policy) = cfg.analyses.get(RULE) else {
        return Vec::new();
    };
    let helper = if policy.helper.is_empty() {
        "lock_or_recover"
    } else {
        policy.helper.as_str()
    };
    let in_scope = |krate: &str| policy.crates.iter().any(|c| c == krate);
    let mut out = Vec::new();

    // Choke-point enforcement: raw `.lock()` outside the helper body.
    for unit in units.iter_mut() {
        if !in_scope(&unit.krate) {
            continue;
        }
        let helper_ranges = helper_line_ranges(unit, helper);
        let mut hits: Vec<(u32, u32)> = Vec::new();
        {
            let toks = &unit.lexed.toks;
            for i in 1..toks.len() {
                let t = &toks[i];
                if !(t.kind == TokKind::Ident && t.text == "lock")
                    || !punct(&toks[i - 1], ".")
                    || !toks.get(i + 1).is_some_and(|n| punct(n, "("))
                {
                    continue;
                }
                if helper_ranges
                    .iter()
                    .any(|&(s, e)| s <= t.line && t.line <= e)
                {
                    continue;
                }
                if unit
                    .parsed
                    .fns
                    .iter()
                    .any(|f| f.in_tests && f.body.0 <= i && i < f.body.1)
                {
                    continue;
                }
                hits.push((t.line, t.col));
            }
        }
        for (line, col) in hits {
            if unit.waived(RULE, line) {
                continue;
            }
            out.push(Diagnostic {
                file: unit.label.clone(),
                line,
                col,
                rule: RULE.to_string(),
                message: format!(
                    "raw `.lock()` bypasses the `{helper}` choke point — the lock-order \
                     analysis cannot see this acquisition; route it through `{helper}`"
                ),
            });
        }
    }

    // Per-function acquisition simulation.
    let mut sims: Vec<FnLocks> = Vec::with_capacity(graph.nodes.len());
    for (idx, node) in graph.nodes.iter().enumerate() {
        if !in_scope(&node.krate) || node.name == helper {
            sims.push(FnLocks::default());
            continue;
        }
        let toks = &units[node.file].lexed.toks;
        let edge_toks: Vec<usize> = graph.edges[idx].iter().map(|e| e.tok).collect();
        sims.push(simulate(toks, node.body, helper, &edge_toks));
    }

    // Transitive acquisition sets, to a fixpoint.
    let mut trans: Vec<BTreeSet<String>> = sims.iter().map(|s| s.acquires.clone()).collect();
    loop {
        let mut changed = false;
        for idx in 0..graph.nodes.len() {
            for e in &graph.edges[idx] {
                // Split-borrow via index comparison is awkward; clone the
                // (tiny) callee set instead.
                let callee_set: Vec<String> = trans[e.callee].iter().cloned().collect();
                for l in callee_set {
                    if trans[idx].insert(l) {
                        changed = true;
                    }
                }
            }
        }
        if !changed {
            break;
        }
    }

    // Order edges: direct pairs + held-across-call pairs.
    let mut order: BTreeMap<(String, String), OrderEdge> = BTreeMap::new();
    let mut record = |edge: OrderEdge| {
        order
            .entry((edge.from.clone(), edge.to.clone()))
            .or_insert(edge);
    };
    for (idx, node) in graph.nodes.iter().enumerate() {
        for (from, to, line, col) in &sims[idx].pairs {
            record(OrderEdge {
                from: from.clone(),
                to: to.clone(),
                file: node.file,
                line: *line,
                col: *col,
                via: None,
            });
        }
        for (edge_idx, held) in &sims[idx].at_call {
            let e = &graph.edges[idx][*edge_idx];
            for from in held {
                for to in &trans[e.callee] {
                    record(OrderEdge {
                        from: from.clone(),
                        to: to.clone(),
                        file: node.file,
                        line: e.line,
                        col: e.col,
                        via: Some(graph.nodes[e.callee].path.clone()),
                    });
                }
            }
        }
    }

    // Cycle detection over the lock-name graph.
    for cycle in cycles(&order) {
        let witness = &order[&(cycle[0].clone(), cycle[1].clone())];
        let unit = &mut units[witness.file];
        if unit.waived(RULE, witness.line) {
            continue;
        }
        let ring = {
            let mut r = cycle.clone();
            r.push(cycle[0].clone());
            r.join(" -> ")
        };
        let mut detail = String::new();
        for w in cycle.windows(2).chain(std::iter::once(
            &[cycle[cycle.len() - 1].clone(), cycle[0].clone()][..],
        )) {
            let e = &order[&(w[0].clone(), w[1].clone())];
            let via = e
                .via
                .as_ref()
                .map_or(String::new(), |v| format!(" via `{v}`"));
            detail.push_str(&format!(
                "; `{}` then `{}` at line {}{via}",
                w[0], w[1], e.line
            ));
        }
        let message = if cycle.len() == 1 {
            format!(
                "lock `{}` acquired while already held (non-reentrant Mutex self-deadlock){detail}",
                cycle[0]
            )
        } else {
            format!("lock-order cycle {ring} is a potential deadlock{detail}")
        };
        out.push(Diagnostic {
            file: unit.label.clone(),
            line: witness.line,
            col: witness.col,
            rule: RULE.to_string(),
            message,
        });
    }
    out
}

/// Elementary cycles in the order graph, one representative per strongly
/// connected component (plus self-loops), deterministically ordered.
/// Reporting one witness cycle per SCC keeps the diagnostics waivable at
/// a single site while still guaranteeing zero cycles once clean.
fn cycles(order: &BTreeMap<(String, String), OrderEdge>) -> Vec<Vec<String>> {
    let mut adj: BTreeMap<&str, BTreeSet<&str>> = BTreeMap::new();
    let mut locks: BTreeSet<&str> = BTreeSet::new();
    for (from, to) in order.keys() {
        adj.entry(from).or_default().insert(to);
        locks.insert(from);
        locks.insert(to);
    }
    let mut out = Vec::new();
    // Self-loops first.
    for l in &locks {
        if adj.get(l).is_some_and(|s| s.contains(l)) {
            out.push(vec![l.to_string(), l.to_string()]);
        }
    }
    // One shortest cycle through each lock, deduped by its normalized
    // rotation (smallest lock first).
    let mut seen: BTreeSet<Vec<String>> = BTreeSet::new();
    for start in &locks {
        if let Some(cycle) = shortest_cycle(start, &adj) {
            if cycle.len() < 2 {
                continue; // self-loop, already reported
            }
            let mut norm = cycle.clone();
            let min_pos = (0..norm.len())
                .min_by_key(|&p| norm[p].clone())
                .unwrap_or(0);
            norm.rotate_left(min_pos);
            if seen.insert(norm.clone()) {
                out.push(norm);
            }
        }
    }
    out
}

/// BFS for the shortest cycle returning to `start`.
fn shortest_cycle<'a>(
    start: &'a str,
    adj: &BTreeMap<&'a str, BTreeSet<&'a str>>,
) -> Option<Vec<String>> {
    let mut parent: BTreeMap<&str, &str> = BTreeMap::new();
    let mut queue: Vec<&str> = vec![start];
    let mut head = 0;
    while head < queue.len() {
        let u = queue[head];
        head += 1;
        for &v in adj.get(u).into_iter().flatten() {
            if v == start {
                // Reconstruct start -> … -> u, the cycle closes u -> start.
                let mut rev = vec![u];
                let mut cur = u;
                while cur != start {
                    cur = parent[cur];
                    rev.push(cur);
                }
                rev.reverse();
                return Some(rev.into_iter().map(str::to_string).collect());
            }
            if v != start && !parent.contains_key(v) && v != u {
                parent.insert(v, u);
                queue.push(v);
            }
        }
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lexer::lex;
    use crate::resolve::{build_graph, FileInput};

    fn sim(src: &str) -> FnLocks {
        let lexed = lex(src);
        // Body = whole token stream for these snippets.
        simulate(&lexed.toks, (0, lexed.toks.len()), "lock_or_recover", &[])
    }

    #[test]
    fn let_guard_held_across_second_acquire() {
        let s = sim("{ let a = lock_or_recover(&shared.jobs); \
                     let b = lock_or_recover(&shared.queue); }");
        assert_eq!(s.acquires.len(), 2);
        assert_eq!(s.pairs.len(), 1);
        assert_eq!(
            (s.pairs[0].0.as_str(), s.pairs[0].1.as_str()),
            ("jobs", "queue")
        );
    }

    #[test]
    fn temporary_guard_releases_at_statement_end() {
        let s = sim("{ lock_or_recover(&self.state).closed = true; \
                     let b = lock_or_recover(&self.other); }");
        assert!(
            s.pairs.is_empty(),
            "temp released before second acquire: {:?}",
            s.pairs
        );
    }

    #[test]
    fn method_chained_guard_is_a_temporary() {
        // `drained` binds the drain() result, not the guard — the guard
        // drops at the semicolon, so no pair with the next acquisition.
        let s = sim("{ let drained = lock_or_recover(&shared.queue).drain(); \
                     let jobs = lock_or_recover(&shared.jobs); }");
        assert!(s.pairs.is_empty(), "{:?}", s.pairs);
        assert_eq!(s.acquires.len(), 2);
    }

    #[test]
    fn for_loop_header_guard_held_through_body() {
        let s = sim("{ for job in lock_or_recover(&shared.jobs).values() { \
                     let st = lock_or_recover(&shared.stats); } }");
        assert_eq!(s.pairs.len(), 1, "{:?}", s.pairs);
        assert_eq!(
            (s.pairs[0].0.as_str(), s.pairs[0].1.as_str()),
            ("jobs", "stats")
        );
    }

    #[test]
    fn drop_releases_named_guard() {
        let s = sim("{ let a = lock_or_recover(&x.jobs); drop(a); \
                     let b = lock_or_recover(&x.stats); }");
        assert!(s.pairs.is_empty(), "{:?}", s.pairs);
    }

    #[test]
    fn block_scope_releases_guard() {
        let s = sim("{ { let a = lock_or_recover(&x.jobs); } \
                     let b = lock_or_recover(&x.stats); }");
        assert!(s.pairs.is_empty(), "{:?}", s.pairs);
    }

    #[test]
    fn self_reacquire_is_a_pair() {
        let s = sim("{ let a = lock_or_recover(&x.jobs); \
                     let b = lock_or_recover(&y.jobs); }");
        assert_eq!(s.pairs.len(), 1);
        assert_eq!(
            (s.pairs[0].0.as_str(), s.pairs[0].1.as_str()),
            ("jobs", "jobs")
        );
    }

    #[test]
    fn raw_lock_in_cfg_test_items_is_exempt() {
        let src = "\
pub fn lock_or_recover(m: &Mutex<u32>) -> MutexGuard<'_, u32> { m.lock().unwrap() }
pub fn bypass(m: &Mutex<u32>) -> u32 { *m.lock().unwrap() }
#[cfg(test)]
mod tests {
    fn t(m: &Mutex<u32>) -> u32 { *m.lock().unwrap() }
}
#[cfg(test)]
fn u(m: &Mutex<u32>) -> u32 { *m.lock().unwrap() }
";
        let cfg = crate::config::parse(
            "[scan]\ncrates = [\"demo\"]\n\
             [analysis.lock-order]\ncrates = [\"demo\"]\nhelper = \"lock_or_recover\"\n",
        )
        .expect("test config parses");
        let mut units = vec![FileUnit::new("demo", "demo.rs", "lib.rs", src)];
        let inputs: Vec<FileInput<'_>> = units
            .iter()
            .map(|u| FileInput {
                krate: &u.krate,
                is_bin: u.is_bin,
                lexed: &u.lexed,
                parsed: &u.parsed,
            })
            .collect();
        let graph = build_graph(&inputs, &BTreeMap::new());
        let lines: Vec<u32> = lock_order_findings(&graph, &mut units, &cfg)
            .iter()
            .map(|d| d.line)
            .collect();
        // Only the non-test bypass on line 2 is a finding.
        assert_eq!(lines, vec![2]);
    }

    #[test]
    fn cycle_detection_finds_abba() {
        let mut order = BTreeMap::new();
        for (f, t) in [("a", "b"), ("b", "a"), ("b", "c")] {
            order.insert(
                (f.to_string(), t.to_string()),
                OrderEdge {
                    from: f.to_string(),
                    to: t.to_string(),
                    file: 0,
                    line: 1,
                    col: 1,
                    via: None,
                },
            );
        }
        let cy = cycles(&order);
        assert_eq!(cy.len(), 1, "{cy:?}");
        assert_eq!(cy[0], vec!["a".to_string(), "b".to_string()]);
    }
}
