"""numpy is the only runtime dependency: no command loads scipy, and each
runs where importing scipy fails.  multiprocessing loads only for work that
splits across processes, and importing one submodule loads only that
submodule and what it imports.  Every source file parses under the
Python 3.10 grammar, the oldest that pyproject.toml claims.

Each import check runs in a new interpreter, since the test process may
have imported scipy (the smoothing oracle in test_corpus.py does).
"""

import ast
import hashlib
import json
from pathlib import Path

import numpy as np
from conftest import run_fresh

from dorsalhash import cli
from dorsalhash.corpus import AugmentationSpec, augment, write_pgm

# loaded() prints the scipy modules imported so far as one "scipy:" line.
SCIPY_PROBE = """
import json, sys
def loaded():
    print("scipy:", json.dumps(sorted(m for m in sys.modules if m == "scipy" or m.startswith("scipy."))))
"""


def probe_fresh(code: str) -> dict[str, list]:
    """Run code in a new interpreter on this checkout; returns its "key: value"
    lines as {key: [JSON values, in order]}."""
    proc = run_fresh("-c", SCIPY_PROBE + code)
    assert proc.returncode == 0, proc.stderr
    lines: dict[str, list] = {}
    for line in proc.stdout.splitlines():
        key, sep, value = line.partition(": ")
        if sep and key in ("scipy", "digest", "multiprocessing", "package"):
            lines.setdefault(key, []).append(json.loads(value))
    return lines


def test_package_cli_and_vault_commands_never_load_scipy(tiny_net, tmp_path):
    cfg = tmp_path / "settings.cfg"
    cfg.write_text(f"input_height={tiny_net.config.input_height}\n"
                   f"input_width={tiny_net.config.input_width}\n", encoding="utf-8")
    model = tmp_path / "model.dfn"
    tiny_net.save(model)
    rng = np.random.default_rng(5)
    images = []
    for i in range(3):
        images.append(str(tmp_path / f"img{i}.pgm"))
        write_pgm(images[-1], rng.uniform(0, 1, (20, 40)))
    common = ["--model", str(model), "--store", str(tmp_path / "store"), "--config", str(cfg)]
    seen = probe_fresh(f"""
loaded()
import dorsalhash
loaded()
import dorsalhash.cli as cli
loaded()
common = {common!r}
images = {images!r}
assert cli.main(["enroll", *common, "--user", "u0", "--images", *images[:2]]) == 0
loaded()
assert cli.main(["verify", *common, "--user", "u0", "--image", images[2], "--threshold", "0.5"]) == 0
loaded()
assert cli.main(["revoke", *common, "--user", "u0", "--images", *images[:2]]) == 0
loaded()
print("multiprocessing:", json.dumps("multiprocessing" in sys.modules))
""")
    assert seen["scipy"] == [[]] * 6
    assert seen["multiprocessing"] == [False]


def test_elastic_augment_loads_no_scipy(tmp_path):
    img = np.linspace(0.0, 1.0, 24 * 40).reshape(24, 40)
    synth_out = str(tmp_path / "corpus")
    seen = probe_fresh(f"""
import hashlib
import numpy as np
from dorsalhash.corpus import AugmentationSpec, SyntheticSpec, augment, generate_synthetic
img = np.linspace(0.0, 1.0, 24 * 40).reshape(24, 40)
loaded()
generate_synthetic(SyntheticSpec(num_subjects=2, samples_per_subject=2, height=8, width=16), {synth_out!r})
loaded()
out = augment(img, AugmentationSpec(count=3, seed=4))
print("digest:", json.dumps(hashlib.sha256(np.stack(out).tobytes()).hexdigest()))
loaded()
""")
    expect = np.stack(augment(img, AugmentationSpec(count=3, seed=4)))
    assert seen["digest"] == [hashlib.sha256(expect.tobytes()).hexdigest()]
    assert seen["scipy"] == [[]] * 3


def test_every_command_runs_where_scipy_cannot_be_imported(tmp_path):
    cfg = tmp_path / "small.cfg"
    cfg.write_text("input_height=16\ninput_width=32\nfc1_dim=96\nfc2_dim=128\n", encoding="utf-8")
    data, model, store = tmp_path / "corpus", tmp_path / "model.dfn", tmp_path / "store"
    source = data / "s00" / "img00.pgm"
    vault = ["--model", str(model), "--store", str(store), "--user", "s00"]
    augment_argv = ["augment", "--image", str(source), "--count", "3", "--seed", "4"]
    argvs = [
        ["synth", "--subjects", "2", "--samples", "3", "--out", str(data), "--config", str(cfg)],
        [*augment_argv, "--out", str(tmp_path / "aug")],
        ["train", "--data", str(data), "--out", str(model), "--epochs", "1", "--gallery-count", "2",
         "--config", str(cfg)],
        ["enroll", *vault, "--images", str(source), str(data / "s00" / "img01.pgm")],
        ["verify", *vault, "--image", str(data / "s00" / "img02.pgm"), "--threshold", "0.5"],
        ["revoke", *vault, "--images", str(source)],
    ]
    seen = probe_fresh(f"""
sys.modules["scipy"] = None  # any import of scipy or a submodule raises ImportError
import hashlib
from pathlib import Path
import dorsalhash.cli as cli
for argv in {argvs!r}:
    assert cli.main(argv) == 0, argv
for path in sorted(Path({str(tmp_path / "aug")!r}).iterdir()):
    print("digest:", json.dumps([path.name, hashlib.sha256(path.read_bytes()).hexdigest()]))
print("scipy:", json.dumps(sorted(m for m in sys.modules if m.startswith("scipy."))))
""")
    assert seen["scipy"] == [[]]
    in_process = tmp_path / "aug_here"
    assert cli.main([*augment_argv, "--out", str(in_process)]) == 0
    assert seen["digest"] == [[p.name, hashlib.sha256(p.read_bytes()).hexdigest()]
                              for p in sorted(in_process.iterdir())]
    assert len(seen["digest"]) == 3


def test_importing_one_submodule_loads_no_other():
    # The package re-exports nothing, so rand (which imports no sibling)
    # comes alone.
    seen = probe_fresh("""
import dorsalhash.rand
print("package:", json.dumps(sorted(m for m in sys.modules if m.split(".")[0] == "dorsalhash")))
""")
    assert seen["package"] == [["dorsalhash", "dorsalhash.rand"]]


def test_every_source_file_parses_as_python_3_10():
    """pyproject.toml claims Python 3.10.  This checks the grammar of every
    source file against 3.10's (``except*`` fails it), not which library
    APIs a file calls."""
    root = Path(__file__).resolve().parents[1]
    files = sorted(f for d in ("src", "scripts", "tests", "perfbench") for f in (root / d).rglob("*.py"))
    assert root / "src" / "dorsalhash" / "cli.py" in files
    for f in files:
        ast.parse(f.read_text(encoding="utf-8"), filename=str(f), feature_version=(3, 10))
