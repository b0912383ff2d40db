//! Unit tests for [`super`] (split out to keep the module readable).

use super::*;
use crate::lexer;

fn parsed(src: &str) -> ParsedFile {
    parse(&lexer::lex(src))
}

#[test]
fn fn_signatures_capture_rng_params() {
    let f = parsed(
        "pub fn sample<R: Rng + ?Sized>(n: usize, rng: &mut R) -> u64 { n }\n\
         fn draw(src: &mut impl Rng) {}\n\
         fn plain(x: f64) -> f64 { x }",
    );
    assert_eq!(f.fns.len(), 3);
    assert_eq!(f.fns[0].name, "sample");
    assert_eq!(f.fns[0].params.len(), 2);
    assert!(f.fns[0].params[1].is_rng(), "rng-by-name");
    assert!(f.fns[1].params[0].is_rng(), "rng-by-type (impl Rng)");
    assert!(!f.fns[2].params[0].is_rng());
}

#[test]
fn impl_blocks_record_trait_and_type() {
    let f = parsed(
        "impl PoolingDesign for IidDesign { fn name(&self) -> &'static str { \"iid\" } }\n\
         impl NoiseModel { fn helper(&self) {} }",
    );
    assert_eq!(f.impls.len(), 2);
    assert_eq!(f.impls[0].trait_name.as_deref(), Some("PoolingDesign"));
    assert_eq!(f.impls[0].type_name, "IidDesign");
    assert_eq!(f.impls[1].trait_name, None);
    assert_eq!(f.impls[1].type_name, "NoiseModel");
    assert_eq!(f.fns.len(), 2);
    assert_eq!(f.fns[0].impl_index, Some(0));
    assert_eq!(f.fns[1].impl_index, Some(1));
}

#[test]
fn qualified_trait_paths_keep_the_final_segment() {
    let f = parsed("impl npd_core::design::PoolingDesign for MyDesign {}");
    assert_eq!(f.impls[0].trait_name.as_deref(), Some("PoolingDesign"));
    assert_eq!(f.impls[0].type_name, "MyDesign");
}

#[test]
fn statics_and_nested_mods_are_found() {
    let f = parsed(
        "static TABLE: [f64; 2] = [0.0, 1.0];\n\
         static COUNT: AtomicUsize = AtomicUsize::new(0);\n\
         mod inner { static mut CACHE: [f64; 4] = [0.0; 4]; fn g() {} }",
    );
    let names: Vec<&str> = f.statics.iter().map(|s| s.name.as_str()).collect();
    assert_eq!(names, ["TABLE", "COUNT", "CACHE"]);
    assert!(!f.statics[0].hazardous, "plain constant table");
    assert!(f.statics[1].hazardous, "atomic");
    assert!(f.statics[2].hazardous, "static mut");
    assert_eq!(f.fns.len(), 1);
    assert_eq!(f.fns[0].name, "g");
}

#[test]
fn bodyless_and_generic_fns_do_not_derail_the_parser() {
    let f = parsed(
        "trait T { fn decl(&self); }\n\
         fn after<F: Fn(u32) -> u32>(f: F) -> u32 { f(1) }",
    );
    // Trait interiors are skipped; the free fn after the trait parses.
    assert_eq!(f.fns.len(), 1);
    assert_eq!(f.fns[0].name, "after");
    assert!(f.fns[0].body.is_some());
}

#[test]
fn const_fn_parses_and_const_items_are_skipped() {
    let f = parsed("const LIMIT: usize = { 3 };\npub const fn cap(x: usize) -> usize { x }");
    assert_eq!(f.fns.len(), 1);
    assert_eq!(f.fns[0].name, "cap");
}
