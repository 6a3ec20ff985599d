"""One `egan run` in a fresh interpreter, timed from outside the program.

Usage: python3 bench/worker.py RESULT_JSON TRACE -- run --mode M --seed S ...

Everything after `--` goes unchanged to `egan.cli.main`, so stdout carries
only the program's own summary line. The worker writes its readings to
RESULT_JSON:

* t_work: monotonic time at which `harness.run_experiment` was entered, i.e.
  after `import egan` and after the CLI built and validated the config;
* t_end: monotonic time at which the CLI returned (artifacts written);
* maxrss_kb: peak resident memory of this process during the run;
* roundtrip_residual: the encode/decode control, computed after timing.

With TRACE = 1 the egan layers are wrapped first (see layers.py), and the
result also holds the per-layer metrics and the quality probes.
"""

from __future__ import annotations

import json
import os
import resource
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))


def main(argv) -> int:
    result_path, trace = argv[0], argv[1] == "1"
    egan_argv = argv[argv.index("--") + 1:]
    sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))
    import egan.cli

    import layers
    from tracer import Tracer

    tracer = Tracer()
    capture = layers.RunCapture()
    if trace:
        probe = layers.install(tracer, capture)
    else:
        tracer.hook("harness", "run_experiment", capture.wrap)
    t_ready = time.monotonic()
    rc = egan.cli.main(egan_argv)
    t_end = time.monotonic()
    out = {
        "hooked": capture.t_start is not None,
        "t_work": capture.t_start if capture.t_start is not None else t_ready,
        "t_end": t_end,
        "maxrss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
    }
    tracer.uninstall()
    if rc == 0 and capture.config is not None:
        import probes

        seed = capture.config.seed
        pre = capture.result[1] if isinstance(capture.result, tuple) else None
        if trace:
            metrics = layers.layer_metrics(tracer, probe, t_end - out["t_work"])
            metrics.update(probes.quality_metrics(capture.config, pre, seed))
            out["metrics"] = {k: v for k, (v, _unit) in metrics.items()}
            out["roundtrip_residual"] = out["metrics"]["experience.roundtrip_residual"]
            if hasattr(pre, "buffer"):
                out["pretrain_buffer_size"] = len(pre.buffer)
        else:
            try:
                out["roundtrip_residual"] = probes.control_residual(seed + 1)
            except probes.PROBE_ERRORS:
                out["roundtrip_residual"] = layers.MISSING
    with open(result_path, "w") as fh:
        json.dump(out, fh)
    return rc


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
