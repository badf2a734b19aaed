"""Command-line entry point.

Subcommands: synth, validate-manifest, extract, train-gmm, train,
identify, evaluate. Exit codes: 0 ok, 1 input error, 2 runtime
failure. Flag > config file > default precedence, except that identify and
evaluate run the front end recorded in the tag store; the effective config
is echoed into every report.
"""

from __future__ import annotations

import argparse
import json
import sys
from collections import Counter
from pathlib import Path

import numpy as np

from . import audio as audio_mod
from . import cascade as cascade_mod
from . import containers
from . import gmm as gmm_mod
from . import pipeline
from . import workers
from .corpus import SynthSpec, generate_synthetic, load_manifest, protocol_counts
from .errors import ConfigError, EmosidError, ValidationError
from .pipeline import FIELD_TYPES, PipelineConfig


def _sizes(text: str) -> tuple:
    return tuple(int(s) for s in text.split(","))


# the flags each subcommand reads; identify and evaluate take the front end
# from the tag store
_FRONT_END_FLAGS = ("target_rate_hz", "pre_emphasis", "frame_ms", "hop_ms",
                    "num_filters", "num_coeffs")
_TRAIN_GMM_FLAGS = _FRONT_END_FLAGS + ("mixtures", "variance_floor", "seed")
_SEGMENT_FLAGS = ("segment_frames", "segment_overlap")
_TRAIN_FLAGS = _TRAIN_GMM_FLAGS + _SEGMENT_FLAGS + (
    "learning_rate", "epochs", "batch_size", "lr_decay", "hidden_sizes")
_EVALUATE_FLAGS = _SEGMENT_FLAGS + ("seed", "snr_ratio")


def _add_config_flags(parser: argparse.ArgumentParser, names) -> None:
    parser.add_argument("--config", help="JSON config file (flags take precedence)")
    for name in names:
        if name == "hidden_sizes":
            parser.add_argument("--hidden", dest=name, default=None, type=_sizes,
                                help="comma-separated hidden layer sizes, e.g. 128,128,128,128")
        else:
            parser.add_argument("--" + name.replace("_", "-"), dest=name, default=None,
                                type=FIELD_TYPES[name])


def _build_config(args, front_end=None) -> PipelineConfig:
    """Defaults, then the --config file, then flags, then front_end (the
    settings a loaded tag store was trained under)."""
    values = {}
    if args.config:
        with open(args.config) as fh:
            try:
                file_cfg = json.load(fh)
            except (UnicodeDecodeError, json.JSONDecodeError) as exc:
                raise ConfigError(f"{args.config}: bad JSON: {exc}") from exc
        if not isinstance(file_cfg, dict):
            raise ConfigError(f"{args.config}: not a JSON object")
        unknown = set(file_cfg) - set(FIELD_TYPES)
        if unknown:
            raise ValidationError(f"unknown config keys: {sorted(unknown)}")
        values.update(file_cfg)
    values.update((name, getattr(args, name)) for name in FIELD_TYPES
                  if getattr(args, name, None) is not None)
    values.update(front_end or {})
    return PipelineConfig(**values)


def _emit(obj, path=None) -> None:
    text = json.dumps(obj, indent=2, sort_keys=True)
    if path:
        Path(path).write_text(text + "\n")
    else:
        print(text)


def cmd_synth(args) -> int:
    spec = SynthSpec(num_speakers=args.speakers, sentences_per_split=args.sentences,
                     repetitions=args.repetitions, sample_rate_hz=args.rate,
                     seed=args.seed, separation=args.separation)
    manifest = generate_synthetic(spec, args.out)
    _emit({"out_dir": args.out, "entries": len(manifest.entries),
           "manifest": str(Path(args.out) / "manifest.jsonl"),
           "counts": protocol_counts(manifest)["splits"]})
    return 0


def cmd_validate_manifest(args) -> int:
    manifest = load_manifest(args.manifest)
    _emit({"entries": len(manifest.entries),
           "speakers": manifest.speaker_roster,
           "emotions": manifest.emotion_roster,
           "counts": protocol_counts(manifest)})
    return 0


def cmd_extract(args) -> int:
    cfg = _build_config(args)
    manifest = load_manifest(args.manifest)
    names = [Path(e.path).stem + ".feat" for e in manifest.entries]
    counts = Counter(names)
    clashes = sorted(e.path for e, name in zip(manifest.entries, names) if counts[name] > 1)
    if clashes:
        raise ValidationError(f"entries would write the same feature file: {clashes}")
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    bank = pipeline.build_bank(cfg)
    if not manifest.entries:
        print("warning: empty manifest, nothing to extract", file=sys.stderr)

    def extract(i):  # one job per entry: "written", "skipped" or its failure
        e, dest = manifest.entries[i], out_dir / names[i]
        if dest.exists() and not args.force:
            return "skipped"
        try:
            fm = pipeline.load_entry_features(e, cfg, bank)
            containers.write_file(dest, containers.save_features(fm))
        except (EmosidError, OSError) as exc:
            return {"path": e.path, "error": str(exc)}
        return "written"

    outcomes = workers.parallel_map(extract, len(names), len(names))
    failures = [o for o in outcomes if isinstance(o, dict)]
    _emit({"written": outcomes.count("written"), "skipped": outcomes.count("skipped"),
           "failures": failures})
    return 2 if failures else 0


def cmd_train(args, gmm_only: bool = False) -> int:
    cfg = _build_config(args)
    manifest = load_manifest(args.manifest)
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)

    if gmm_only:
        models = pipeline.TrainedModels(tag_store=pipeline.train_tags(manifest, cfg))
        models.report = {"config": cfg.to_dict(), "num_tags": len(models.tag_store),
                         "train_utterances": len(manifest.split_entries("train"))}
    else:
        models = pipeline.train_models(manifest, cfg)
    store = models.tag_store
    path = out_dir / "tags.sidtags"
    containers.write_file(path, containers.save_tag_store(store))
    wrote = {"tag_store": str(path)}
    keys = [f"{spk}|{emo}" for spk in store.speaker_roster for emo in store.emotion_roster]
    _emit({"tags": dict(zip(keys, store.train_meta))}, out_dir / "tags.meta.json")
    if not gmm_only:
        path = out_dir / "cascade.siddnn"
        containers.write_file(path, containers.save_dnn(models.cascade_dnn))
        wrote["cascade_dnn"] = str(path)
        path = out_dir / "dnn_only.siddnn"
        containers.write_file(path, containers.save_dnn(models.dnn_only))
        wrote["dnn_only"] = str(path)
    _emit({"report": models.report, "artifacts": wrote}, out_dir / "train_report.json")
    _emit({"report": models.report, "artifacts": wrote})
    return 0


def _load_models(args) -> pipeline.TrainedModels:
    store = containers.load_tag_store(containers.read_file(args.tags))
    cascade_net = containers.load_dnn(containers.read_file(args.dnn))
    dnn_only = containers.load_dnn(containers.read_file(args.dnn_only)) \
        if getattr(args, "dnn_only", None) else None
    return pipeline.TrainedModels(tag_store=store, cascade_dnn=cascade_net,
                                  dnn_only=dnn_only)


def cmd_identify(args) -> int:
    models = _load_models(args)
    cfg = _build_config(args, models.tag_store.front_end)
    clip = audio_mod.load_wav(args.wav)
    fm = pipeline.extract_features(clip, cfg)
    plan = cfg.segment_plan()
    decision = cascade_mod.classify(models.tag_store, models.cascade_dnn, fm,
                                    plan, cfg.aggregation)
    gmm_decision, _ = gmm_mod.gmm_identify(models.tag_store, fm)
    record = {
        "decision": decision.speaker_id,
        "posterior": decision.posterior.tolist(),
        "speakers": models.tag_store.speaker_roster,
        "per_segment": decision.per_segment,
        "tie": bool(decision.tie),
        "gmm_decision": gmm_decision,
        "agreement": gmm_decision == decision.speaker_id,
    }
    if args.binary_mask:
        mask = np.zeros(len(decision.posterior))
        mask[int(np.argmax(decision.posterior))] = 1.0
        record["binary_mask"] = mask.tolist()
    _emit(record, args.out)
    return 0


def cmd_evaluate(args) -> int:
    manifest = load_manifest(args.manifest)
    models = _load_models(args)
    cfg = _build_config(args, models.tag_store.front_end)
    modes = tuple(args.modes.split(",")) if args.modes else pipeline.MODES
    if "dnn" in modes and models.dnn_only is None:
        raise ValidationError("--dnn-only model required for mode 'dnn'")

    records = pipeline.evaluate_models(manifest, models, cfg, modes, distort=False)
    if args.distort:
        records += pipeline.evaluate_models(manifest, models, cfg, modes, distort=True)
    report = pipeline.evaluation_report(records, cfg)
    _emit(report, args.out)
    if args.text:
        print(render_text_report(report))
    return 0


def render_text_report(report: dict) -> str:
    lines = []
    for mode, block in sorted(report["modes"].items()):
        lines.append(f"mode: {mode}")
        lines.append(f"  {'cell':<30} {'rate %':>8} {'trials':>7}")
        for cell, v in block["cells"].items():
            lines.append(f"  {cell:<30} {v['rate']:>8.1f} {v['trials']:>7}")
        for key, avg in block["averages"].items():
            lines.append(f"  average {key:<22} {avg:>8.1f}")
    for t in report["t_tests"]:
        sig = "significant" if t["significant_at_0.05"] else "not significant"
        lines.append(f"t({t['modes'][0]}, {t['modes'][1]}) = {t['t_value']:.3f} ({sig})")
    return "\n".join(lines)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="emosid",
                                     description="Cascaded GMM-DNN speaker identification")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("synth", help="generate the synthetic corpus")
    p.add_argument("--out", required=True)
    p.add_argument("--speakers", type=int, default=10)
    p.add_argument("--sentences", type=int, default=4,
                   help="sentences per split (train and test each)")
    p.add_argument("--repetitions", type=int, default=3)
    p.add_argument("--rate", type=int, default=12000)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--separation", type=float, default=1.0)
    p.set_defaults(func=cmd_synth)

    p = sub.add_parser("validate-manifest", help="check a manifest file")
    p.add_argument("manifest")
    p.set_defaults(func=cmd_validate_manifest)

    p = sub.add_parser("extract", help="write one feature file per manifest entry")
    p.add_argument("--manifest", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--force", action="store_true")
    _add_config_flags(p, _FRONT_END_FLAGS)
    p.set_defaults(func=cmd_extract)

    for name, flags, kwargs in [("train", _TRAIN_FLAGS, {}),
                                ("train-gmm", _TRAIN_GMM_FLAGS, {"gmm_only": True})]:
        p = sub.add_parser(name, help=f"{name} on the manifest's train split")
        p.add_argument("--manifest", required=True)
        p.add_argument("--out", required=True)
        _add_config_flags(p, flags)
        p.set_defaults(func=lambda a, kw=kwargs: cmd_train(a, **kw))

    p = sub.add_parser("identify", help="classify one WAV file")
    p.add_argument("--wav", required=True)
    p.add_argument("--tags", required=True)
    p.add_argument("--dnn", required=True)
    p.add_argument("--out", default=None)
    p.add_argument("--binary-mask", action="store_true")
    _add_config_flags(p, _SEGMENT_FLAGS)
    p.set_defaults(func=cmd_identify)

    p = sub.add_parser("evaluate", help="run the test split through the classifiers")
    p.add_argument("--manifest", required=True)
    p.add_argument("--tags", required=True)
    p.add_argument("--dnn", required=True)
    p.add_argument("--dnn-only", default=None, dest="dnn_only")
    p.add_argument("--modes", default=None, help="comma list from gmm,dnn,cascade")
    p.add_argument("--distort", action="store_true",
                   help="also evaluate with interference mixed at --snr-ratio")
    p.add_argument("--out", default=None)
    p.add_argument("--text", action="store_true")
    _add_config_flags(p, _EVALUATE_FLAGS)
    p.set_defaults(func=cmd_evaluate)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (EmosidError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1 if isinstance(exc, (ValidationError, ConfigError, OSError)) else 2


def run(argv=None) -> int:
    """The ``emosid`` program: main() with every loaded OpenBLAS on one thread.
    The program's GEMMs are small, and BLAS threads would spin on them rather
    than share the work. main() alone leaves BLAS as its caller set it."""
    workers._one_blas_thread()
    return main(argv)


if __name__ == "__main__":
    sys.exit(run())
