//! Property tests for the dataflow pass: generated straight-line programs
//! over a handful of `Vec` bindings run through [`extract`] and the
//! derived facts are compared against a reference interpreter that
//! executes the same statement list abstractly.
//!
//! The statement language is deliberately unambiguous — one binding
//! mention per statement shape, literal loop trips, no shadowing — so the
//! reference semantics are beyond argument: spawn marks an escape,
//! any later mention of the binding flips `used_after_spawn`, clones count
//! textually (bound clones raise the live-version high-water mark),
//! and populating calls under literal loops accumulate an exact capacity
//! bound. Divergence on any generated program is a dataflow bug, not a
//! fixture-selection accident.

use proptest::prelude::*;

use cs_analyzer::{extract, CapacityBound, ExtractOptions, SiteFacts};

/// One statement over binding `bN`. Rendering is 1:1 with the reference
/// interpretation below.
#[derive(Debug, Clone, Copy)]
enum Op {
    /// `bN.push(1u64);` — a plain use, no capacity evidence outside loops.
    Push(usize),
    /// `for _it in 0..n { bN.push(1u64); }` — bounded populating.
    LoopPush(usize, u64),
    /// `drop(bN.clone());` — a transient clone, never a live version.
    CloneDrop(usize),
    /// `let cK = bN.clone(); drop(cK);` — a bound clone: a live version.
    CloneLet(usize),
    /// `for _it in 0..n { drop(bN.clone()); }` — clone pressure in a loop.
    CloneInLoop(usize, u64),
    /// `std::thread::spawn(move || drop(bN));` — concurrent escape.
    Spawn(usize),
    /// `bN.truncate(0);` — a use with no other fact attached.
    Touch(usize),
}

fn render(bindings: usize, ops: &[Op], ret: Option<usize>) -> String {
    let mut src = String::from("fn prop_case() {\n");
    for b in 0..bindings {
        src.push_str(&format!("    let mut b{b} = Vec::new();\n"));
    }
    let mut fresh = 0usize;
    for op in ops {
        match *op {
            Op::Push(b) => src.push_str(&format!("    b{b}.push(1u64);\n")),
            Op::LoopPush(b, n) => src.push_str(&format!(
                "    for _it in 0..{n} {{\n        b{b}.push(1u64);\n    }}\n"
            )),
            Op::CloneDrop(b) => src.push_str(&format!("    drop(b{b}.clone());\n")),
            Op::CloneLet(b) => {
                src.push_str(&format!(
                    "    let c{fresh} = b{b}.clone();\n    drop(c{fresh});\n"
                ));
                fresh += 1;
            }
            Op::CloneInLoop(b, n) => src.push_str(&format!(
                "    for _it in 0..{n} {{\n        drop(b{b}.clone());\n    }}\n"
            )),
            Op::Spawn(b) => src.push_str(&format!("    std::thread::spawn(move || drop(b{b}));\n")),
            Op::Touch(b) => src.push_str(&format!("    b{b}.truncate(0);\n")),
        }
    }
    if let Some(b) = ret {
        src.push_str(&format!("    b{b}\n"));
    }
    src.push_str("}\n");
    src
}

/// The reference semantics, executed per statement in program order.
#[derive(Debug, Clone, Default, PartialEq)]
struct Expected {
    spawn: bool,
    used_after_spawn: bool,
    returned: bool,
    clone_count: u32,
    clone_in_loop: bool,
    max_live_versions: u32,
    bounded_pushes: u64,
    exact_bound: Option<u64>,
}

fn interpret(bindings: usize, ops: &[Op], ret: Option<usize>) -> Vec<Expected> {
    let mut ex = vec![Expected::default(); bindings];
    let mut spawned = vec![false; bindings];
    let touch = |ex: &mut Vec<Expected>, spawned: &[bool], b: usize| {
        if spawned[b] {
            ex[b].used_after_spawn = true;
        }
    };
    for op in ops {
        match *op {
            Op::Push(b) | Op::Touch(b) => touch(&mut ex, &spawned, b),
            Op::LoopPush(b, n) => {
                touch(&mut ex, &spawned, b);
                ex[b].bounded_pushes += n;
                ex[b].exact_bound = Some(ex[b].bounded_pushes);
            }
            Op::CloneDrop(b) => {
                touch(&mut ex, &spawned, b);
                ex[b].clone_count += 1;
            }
            Op::CloneLet(b) => {
                touch(&mut ex, &spawned, b);
                ex[b].clone_count += 1;
                // A bound clone plus the original are simultaneously live.
                ex[b].max_live_versions = ex[b].max_live_versions.max(ex[b].clone_count + 1);
            }
            Op::CloneInLoop(b, _) => {
                touch(&mut ex, &spawned, b);
                ex[b].clone_count += 1;
                ex[b].clone_in_loop = true;
            }
            Op::Spawn(b) => {
                ex[b].spawn = true;
                spawned[b] = true;
            }
        }
    }
    if let Some(b) = ret {
        touch(&mut ex, &spawned, b);
        ex[b].returned = true;
    }
    ex
}

fn observed(facts: &SiteFacts) -> Expected {
    Expected {
        spawn: facts.escape.spawn,
        used_after_spawn: facts.escape.used_after_spawn,
        returned: facts.escape.returned,
        clone_count: facts.clones.count,
        clone_in_loop: facts.clones.in_loop,
        max_live_versions: facts.clones.max_live_versions,
        bounded_pushes: facts.capacity.bounded_pushes,
        exact_bound: match facts.capacity.bound {
            Some(CapacityBound::Exact(n)) => Some(n),
            _ => None,
        },
    }
}

fn program_strategy() -> impl Strategy<Value = (usize, Vec<Op>, Option<usize>)> {
    let raw_ops = proptest::collection::vec((0u8..7, 0usize..3, 1u64..7), 0..12);
    (1usize..4, raw_ops, 0usize..4).prop_map(|(bindings, raw, ret_raw)| {
        let ops = raw
            .into_iter()
            .map(|(kind, b_raw, n)| {
                let b = b_raw % bindings;
                match kind {
                    0 => Op::Push(b),
                    1 => Op::LoopPush(b, n),
                    2 => Op::CloneDrop(b),
                    3 => Op::CloneLet(b),
                    4 => Op::CloneInLoop(b, n),
                    5 => Op::Spawn(b),
                    _ => Op::Touch(b),
                }
            })
            .collect();
        let ret = (ret_raw < bindings).then_some(ret_raw);
        (bindings, ops, ret)
    })
}

proptest! {
    #[test]
    fn dataflow_matches_the_reference_interpreter(
        program in program_strategy(),
    ) {
        let (bindings, ops, ret) = program;
        let src = render(bindings, &ops, ret);
        let analysis = extract("prop.rs", &src, ExtractOptions::default());
        prop_assert_eq!(analysis.sites.len(), bindings, "one site per decl:\n{}", src);
        let facts = &analysis.flows;
        let expected = interpret(bindings, &ops, ret);
        for b in 0..bindings {
            prop_assert_eq!(
                analysis.sites[b].binding.as_deref(),
                Some(format!("b{b}").as_str())
            );
            // Facts the generator never produces must stay off.
            prop_assert!(
                !facts[b].escape.arc
                    && !facts[b].escape.mutex
                    && !facts[b].escape.static_sink,
                "phantom wrapper facts on b{b}:\n{}",
                src
            );
            prop_assert_eq!(
                &observed(&facts[b]),
                &expected[b],
                "b{} diverged on:\n{}",
                b,
                src
            );
        }
    }
}
