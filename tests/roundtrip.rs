//! Trace serialization round-trip over the whole application registry:
//! for every bundled app, write its trace through `scalatrace::text`, read
//! it back, and check that (a) the traces are semantically identical and
//! (b) the benchmark generated from the reloaded trace is byte-identical
//! to the one generated from the original — serialization must not perturb
//! the pipeline.

use benchgen::{generate, GenOptions};
use miniapps::{registry, AppParams};
use mpisim::network;
use scalatrace::text::{from_text, to_text};

/// Smallest rank count an app accepts (apps differ: BT/SP need squares,
/// Sweep3D needs its own decomposition, ...).
fn smallest_ranks(app: &miniapps::App) -> usize {
    (1..=64)
        .find(|&n| (app.valid_ranks)(n))
        .unwrap_or_else(|| panic!("{} accepts no rank count up to 64", app.name))
}

#[test]
fn every_registry_app_roundtrips_through_the_text_format() {
    for app in registry::all() {
        let ranks = smallest_ranks(app);
        let params = AppParams::quick();
        let run = app.run;
        let traced = scalatrace::trace_app(ranks, network::ideal(), move |ctx| run(ctx, &params))
            .unwrap_or_else(|e| panic!("{} fails to trace: {e}", app.name));

        let text = to_text(&traced.trace);
        let reloaded = from_text(&text)
            .unwrap_or_else(|e| panic!("{} trace fails to re-parse: {e}", app.name));
        scalatrace::semantically_equal(&traced.trace, &reloaded)
            .unwrap_or_else(|e| panic!("{} trace changed across serialization: {e}", app.name));

        // Serialization must be a fixed point.
        assert_eq!(
            text,
            to_text(&reloaded),
            "{}: second serialization differs",
            app.name
        );

        // The generated program must be identical from either trace.
        let opts = GenOptions::default();
        let a = generate(&traced.trace, &opts)
            .unwrap_or_else(|e| panic!("{} fails to generate: {e}", app.name));
        let b = generate(&reloaded, &opts)
            .unwrap_or_else(|e| panic!("{} fails to generate from reloaded trace: {e}", app.name));
        assert_eq!(
            conceptual::printer::print(&a.program),
            conceptual::printer::print(&b.program),
            "{}: generated program changed across trace serialization",
            app.name
        );
    }
}

#[test]
fn every_registry_app_roundtrips_through_the_binary_format() {
    use scalatrace::stream::{trace_from_bytes, trace_to_bytes};
    for app in registry::all() {
        let ranks = smallest_ranks(app);
        let params = AppParams::quick();
        let run = app.run;
        let traced = scalatrace::trace_app(ranks, network::ideal(), move |ctx| run(ctx, &params))
            .unwrap_or_else(|e| panic!("{} fails to trace: {e}", app.name));

        // Binary round-trip is exact (not just semantic): STBS preserves
        // the timing histograms the text view summarises away.
        let bytes = trace_to_bytes(&traced.trace);
        let reloaded = trace_from_bytes(&bytes)
            .unwrap_or_else(|e| panic!("{} binary trace fails to decode: {e}", app.name));
        assert_eq!(
            traced.trace, reloaded,
            "{}: binary round-trip changed the trace",
            app.name
        );
        assert_eq!(
            bytes,
            trace_to_bytes(&reloaded),
            "{}: second binary serialization differs",
            app.name
        );

        // Converting through the other format and back is byte-identical
        // on each side: text -> binary -> text is the identity on trace
        // text, and binary -> text -> binary on text-canonical traces
        // (`commbench convert` both directions).
        let text = to_text(&traced.trace);
        // The lossless form may never again be the bigger one.
        assert!(
            bytes.len() < text.len(),
            "{}: {} B of STBS for {} B of text",
            app.name,
            bytes.len(),
            text.len()
        );
        let via_binary = to_text(&trace_from_bytes(&trace_to_bytes(&traced.trace)).unwrap());
        assert_eq!(
            text, via_binary,
            "{}: text -> binary -> text is not the identity",
            app.name
        );
        let canonical = from_text(&text).unwrap();
        let canon_bytes = trace_to_bytes(&canonical);
        let via_text = trace_to_bytes(&from_text(&to_text(&canonical)).unwrap());
        assert_eq!(
            canon_bytes, via_text,
            "{}: binary -> text -> binary is not the identity on canonical traces",
            app.name
        );
    }
}
