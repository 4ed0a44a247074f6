//! `cfdc verify`: the kernels bit-exact against the reference.

use std::process::exit;

use crate::compile::{compile_or_exit, kernels};
use crate::flags::{checked_or_exit, parse_common};
use crate::or_exit;

pub(crate) fn cmd_verify(args: &[String]) {
    let mut p = checked_or_exit("verify", parse_common(args));
    if !p.elements_set {
        p.program.flow.elements = 8; // verification default: a sample, not the full run
    }
    let art = compile_or_exit(&p);
    let mut v = or_exit(
        "verification",
        art.verify(p.program.flow.elements, p.runtime.seed),
    );
    // The first element also holds the interpreter to its definition.
    v.bitexact &= or_exit("verification", art.matches_the_definition(p.runtime.seed));
    outln!(
        "verified {} chained elements ({}): bitexact={}, max_rel_diff={:.3e}",
        v.elements,
        kernels(art.kernel_count()),
        v.bitexact,
        v.max_rel_diff
    );
    if !v.bitexact {
        exit(1);
    }
}
