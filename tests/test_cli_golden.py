"""Golden hashes of the command line's exact output.

Each entry is the SHA-256 of (exit code, stdout, stderr) from running `main`
in process on one command: every family under its canonical name and its
alias in all four formats, `enumerate` over full, Kautz and weight-band
languages, `verify` passing and failing in text and JSON, `export`, the
parameter errors, and both help screens.  A refactor must leave every hash unchanged; a deliberate
output change updates the hash and says why in CHANGES.md.

argparse wraps its help and usage text to the terminal width, so COLUMNS is
pinned to 80.  Its wording also moves between Python versions; the hashes of
the text argparse writes itself were recorded on CPython 3.11 and are
checked on 3.10 and 3.11 only.

Print the current hashes with ``PYTHONPATH=src python tests/test_cli_golden.py``.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import os
import sys

import pytest

from orthoseq.cli import main

# text written by argparse itself, whose wording depends on the Python version
ARGPARSE_TEXT = {"generate --family mystery --sigma 3", "generate --help", "--help"}

# command -> SHA-256 of (exit code, stdout, stderr)
GOLDEN = {
    "generate --family de-bruijn --sigma 3 -k 2 --ell 2 --format text": "f95b194e5eb3f948db75c2988d884c453b2aaf7e8f7866a910c94b7f9ce570f2",
    "generate --family de-bruijn --sigma 3 -k 2 --ell 2 --format json": "a1eed24e67046ab6e6a60e3515450d51a83c96235ac848f6242bbce57d2aacf4",
    "generate --family de-bruijn --sigma 3 -k 2 --ell 2 --format csv": "323e6a6179fc88298b2e77d3a9afcd3dd908ff8524041eb5a8f9f29c1abc5471",
    "generate --family de-bruijn --sigma 3 -k 2 --ell 2 --format fasta": "1a220969fc15a0f1d62494cb8099d684fa1354c622dc0b8d0adcee465f68b3dc",
    "generate --family ortho-db --sigma 3 -k 2 --ell 2 --format text": "f95b194e5eb3f948db75c2988d884c453b2aaf7e8f7866a910c94b7f9ce570f2",
    "generate --family ortho-db --sigma 3 -k 2 --ell 2 --format json": "a1eed24e67046ab6e6a60e3515450d51a83c96235ac848f6242bbce57d2aacf4",
    "generate --family ortho-db --sigma 3 -k 2 --ell 2 --format csv": "323e6a6179fc88298b2e77d3a9afcd3dd908ff8524041eb5a8f9f29c1abc5471",
    "generate --family ortho-db --sigma 3 -k 2 --ell 2 --format fasta": "1a220969fc15a0f1d62494cb8099d684fa1354c622dc0b8d0adcee465f68b3dc",
    "generate --family kautz --dna -k 2 --ell 2 --format text": "62d5fc8fdedb343105f48e2c7d6dc240855ba46da3c4db900ab25e5a9fd11f77",
    "generate --family kautz --dna -k 2 --ell 2 --format json": "f7ca33097b43de640fd100edf26a99bcb2316420014ab582d6129e2221b8ac6e",
    "generate --family kautz --dna -k 2 --ell 2 --format csv": "d386981687229ad6027a3e699399794f8a96cc19f0ca32a538303cab22aab714",
    "generate --family kautz --dna -k 2 --ell 2 --format fasta": "ec3a3671ad8d7849b256c00280b2dd655b46946e46c4f53e23c764e381df0d17",
    "generate --family ortho-kautz --dna -k 2 --ell 2 --format text": "62d5fc8fdedb343105f48e2c7d6dc240855ba46da3c4db900ab25e5a9fd11f77",
    "generate --family ortho-kautz --dna -k 2 --ell 2 --format json": "f7ca33097b43de640fd100edf26a99bcb2316420014ab582d6129e2221b8ac6e",
    "generate --family ortho-kautz --dna -k 2 --ell 2 --format csv": "d386981687229ad6027a3e699399794f8a96cc19f0ca32a538303cab22aab714",
    "generate --family ortho-kautz --dna -k 2 --ell 2 --format fasta": "ec3a3671ad8d7849b256c00280b2dd655b46946e46c4f53e23c764e381df0d17",
    "generate --family balanced-de-bruijn -c 2 -b 6 -k 2 --format text": "7ec0fbf367a7ece075ce719c468782ee420b20bf920995f8f4563a457ed8e70f",
    "generate --family balanced-de-bruijn -c 2 -b 6 -k 2 --format json": "4604ce0156ec81c8ebebd360241b902e1607cfd48548774694555fd80361edb4",
    "generate --family balanced-de-bruijn -c 2 -b 6 -k 2 --format csv": "f10d4f039c4ac1c36ec2d56e967a7fb7f85bbf4fe6357922a20f0006fa055433",
    "generate --family balanced-de-bruijn -c 2 -b 6 -k 2 --format fasta": "8570bb227aeee1a2694012fcdce614b312ef330a4861ee3bd8b5cc16b22de366",
    "generate --family balanced-db -c 2 -b 6 -k 2 --format text": "7ec0fbf367a7ece075ce719c468782ee420b20bf920995f8f4563a457ed8e70f",
    "generate --family balanced-db -c 2 -b 6 -k 2 --format json": "4604ce0156ec81c8ebebd360241b902e1607cfd48548774694555fd80361edb4",
    "generate --family balanced-db -c 2 -b 6 -k 2 --format csv": "f10d4f039c4ac1c36ec2d56e967a7fb7f85bbf4fe6357922a20f0006fa055433",
    "generate --family balanced-db -c 2 -b 6 -k 2 --format fasta": "8570bb227aeee1a2694012fcdce614b312ef330a4861ee3bd8b5cc16b22de366",
    "generate --family balanced-kautz -c 2 -b 1 -k 2 --format text": "c8fcb137c5d69946a51d8ee88d7cb51561769b5e38be27fe93e586e8091af5e0",
    "generate --family balanced-kautz -c 2 -b 1 -k 2 --format json": "97c58dc31312fcbaccd369496b7557d0a4ade1bee4e8b07030954981277f6750",
    "generate --family balanced-kautz -c 2 -b 1 -k 2 --format csv": "e531cf2c22f9dd832b2c43c827db496a9e52bde54917739c8d4c6dccbbfb9a78",
    "generate --family balanced-kautz -c 2 -b 1 -k 2 --format fasta": "1c592cfe847398ae7771a01fecbd19d09fc47dd4f57753cf0d42a4b438913a1f",
    "generate --family fixed-weight-de-bruijn --dna -k 4 --weight 3 --format text": "788ad408fc5a2035d3ef81cf18bf2ab5d771e35abfbf6b669abc13c353c58c77",
    "generate --family fixed-weight-de-bruijn --dna -k 4 --weight 3 --format json": "07ddfdf90fb8dc4a5a1765d8edf52afbabf2030db895641c0ecfa0b5bdc14ff9",
    "generate --family fixed-weight-de-bruijn --dna -k 4 --weight 3 --format csv": "998240e3d0768ab685c117fe85a6a9b2734f80c941b7db464167f7bf8c08633b",
    "generate --family fixed-weight-de-bruijn --dna -k 4 --weight 3 --format fasta": "b62cabe9718553bd22cb957a22c32834eff33d1d5b080cbd096b42c119be7ad7",
    "generate --family fw-db --dna -k 4 --weight 3 --format text": "788ad408fc5a2035d3ef81cf18bf2ab5d771e35abfbf6b669abc13c353c58c77",
    "generate --family fw-db --dna -k 4 --weight 3 --format json": "07ddfdf90fb8dc4a5a1765d8edf52afbabf2030db895641c0ecfa0b5bdc14ff9",
    "generate --family fw-db --dna -k 4 --weight 3 --format csv": "998240e3d0768ab685c117fe85a6a9b2734f80c941b7db464167f7bf8c08633b",
    "generate --family fw-db --dna -k 4 --weight 3 --format fasta": "b62cabe9718553bd22cb957a22c32834eff33d1d5b080cbd096b42c119be7ad7",
    "generate --family fixed-weight-kautz --alphabet ATCG --weighted CG -k 3 --band 1 2 --format text": "aafbb9b8333ce7b89e70f0ffb1699c66f4c7a436fc1c7ef33f010bef83a95bc3",
    "generate --family fixed-weight-kautz --alphabet ATCG --weighted CG -k 3 --band 1 2 --format json": "1b3fe3160650d2d8ce50a635b088082f070d9837dd617fcacd1b73edbe1c44aa",
    "generate --family fixed-weight-kautz --alphabet ATCG --weighted CG -k 3 --band 1 2 --format csv": "a12796acaa3c82a88d97317fa2e908a099ff5c5a5a5dae272069a7d7d0ba9a3c",
    "generate --family fixed-weight-kautz --alphabet ATCG --weighted CG -k 3 --band 1 2 --format fasta": "541ed278e0d7de95a530e681a0aa95712560d2aab34e738296182d44ee1e83d3",
    "generate --family fw-kautz --alphabet ATCG --weighted CG -k 3 --band 1 2 --format text": "aafbb9b8333ce7b89e70f0ffb1699c66f4c7a436fc1c7ef33f010bef83a95bc3",
    "generate --family fw-kautz --alphabet ATCG --weighted CG -k 3 --band 1 2 --format json": "1b3fe3160650d2d8ce50a635b088082f070d9837dd617fcacd1b73edbe1c44aa",
    "generate --family fw-kautz --alphabet ATCG --weighted CG -k 3 --band 1 2 --format csv": "a12796acaa3c82a88d97317fa2e908a099ff5c5a5a5dae272069a7d7d0ba9a3c",
    "generate --family fw-kautz --alphabet ATCG --weighted CG -k 3 --band 1 2 --format fasta": "541ed278e0d7de95a530e681a0aa95712560d2aab34e738296182d44ee1e83d3",
    "enumerate --sigma 3 -k 2 --format text": "b6eec6318bd3bc6accaebd519e3f90523a9c7dc8461a65b6dae25f4e74cd1e89",
    "enumerate --sigma 3 -k 2 --format json": "43f4f74e8782a7072acc76b5321134f7c14417882b78702b532c3eb61d555aed",
    "enumerate --sigma 3 -k 2 --format csv": "cdaa0e9c65397d02eb8054761623d8b82eb701bfeffe2b60eac77b418ac9b7c9",
    "enumerate --sigma 3 -k 2 --format fasta": "1a9c5cda30a2bb82fc095ab10730d80994dc4765cbb6cf6f0b4e403c164e826a",
    "enumerate --sigma 3 -k 3 --kautz --format text": "4d3b15b12a32e18f9da197a3313455175d3f1f7c5b910a230d25c97e247f1a23",
    "enumerate --sigma 3 -k 3 --kautz --format json": "2f5e4e79665cfaa4b8f3dca5bc78212f2c3806b90df95c69d7a9b21c890f54b3",
    "enumerate --sigma 3 -k 3 --kautz --format csv": "958fdd961172bfdd398724685e8b851d1e9f70d6095b1a67f8d99164341994be",
    "enumerate --sigma 3 -k 3 --kautz --format fasta": "781836345f28d25f677c420c645825fc01ff15a0c2e1b359ca98ca758bc9973b",
    "enumerate --dna -k 3 --band 1 1 --format text": "e34a618f2d76394779a2bf7ae2ed535963fdc7bbd5ec5b8dee54aeb3dabd92ef",
    "enumerate --dna -k 3 --band 1 1 --format json": "e699bc478b4119d70e320069f3ba5c4ab63993a97d54cff88e4816b353b62376",
    "enumerate --dna -k 3 --band 1 1 --format csv": "71cd1e6977e21ca5dcb73d6c61be414d990f7bc9fe5b910a9f41b238f96dbfad",
    "enumerate --dna -k 3 --band 1 1 --format fasta": "1c48ce8bc462744df00f3fc989f84f6927567c6bf6835da35d2815dd014f5660",
    "enumerate --sigma 2 -k 5 --format fasta": "23df405b2d25b876b520dc8d23dd1625d296d385816992eb0be197d21a9ca754",
    "enumerate --sigma 3 -k 2 --max-results 5": "0b325c176a011bb5f5821b293e3ed49aed057b5374f05fa5de4e046b2b57bc4a",
    "generate --family de-bruijn --sigma 4 -k 2": "24a69522a4604afc3cb2ce363a23a41531dfcf781adab171ff958b8247f7085c",
    "generate --family balanced-de-bruijn -c 2 -b 2 -k 2": "b5abdf17a665cbc286520b401f384c7c29c37f3ba95839c286297cd05820854a",
    "generate --family balanced-kautz -c 1 -b 1 -k 2 --format json": "633a204112171abbc9a9ceb392d6469d6821da4b5820ecffc6aabc7c37ceb709",
    "verify --property de-bruijn --sigma 3 -k 2 --word 012002211": "f5361699db0e464985ee52b3ebee1c3f4f60269dd6e78061cc12b14082ff248f",
    "verify --property de-bruijn --sigma 3 -k 2 --word 012002212": "fe26d59a805657c35044e91ea2a8ab5792e71123f912ebe57d99b3e9f7a4f4d6",
    "verify --property de-bruijn --sigma 3 -k 2 --word 012002212 --format json": "5d63b8eee1a29a13c62654ebdb9b28eb4b90e78dd508f8a1303383f0a9c162b9",
    "verify --property de-bruijn --sigma 3 -k 2 --word 010211220 --word 011002212 --ell 1 --format json": "5de48c700a8f27cb13226b45d73090685946fef3aaede62c8c7c030a8c0e0a81",
    "verify --property self-orthogonal --sigma 3 -k 2 --word 000111222020212101": "769579a2d9ad93dd73f3f2667bea9200e5246d637b3c969fdb46ca8b4a9a6bcd",
    "verify --property balanced --sigma 4 -k 2 -b 2 --word 0011223300112233": "7d946f7039a27a6fd6f39cde1a6bf55f32f4b56f462e436c15b8d478e560188a",
    "verify --property balanced --sigma 4 -k 2 -b 2 --ell 1 --word 22101312000230330102031113212233": "b4f761981b41c1625f0ac708cace2aa7676e37e3280ece826a21a5785266b65d",
    "export --sigma 3 -k 2": "34c9586f5a895ed1bbab573a429c4233a4c0b18a315c4c97f4cbcdd6df795729",
    "export --dna -k 3 --kautz --band 1 1 --format json": "8efe39098807012de55090c65e6bb65bba486cf9121625867fa9a7852bcd17aa",
    "generate --family balanced-de-bruijn -b 2": "5882c49dc74b4996fecb5420c30fcb5042eb0f194d2f430e044fd1b3a5707e97",
    "generate --family balanced-db -c 2": "62a41a0b06d5109c153ed8462155462ae05a08361a8e518a65118f4959341230",
    "generate --family balanced-kautz -b 1": "5882c49dc74b4996fecb5420c30fcb5042eb0f194d2f430e044fd1b3a5707e97",
    "generate --family balanced-kautz -c 1": "62a41a0b06d5109c153ed8462155462ae05a08361a8e518a65118f4959341230",
    "generate --family fixed-weight-de-bruijn --dna -k 3": "b7e663ebeeebf5a638db0772bc27140f971ceaa802b0eea4ae4dd1e325bba5e9",
    "generate --family fw-kautz --dna -k 3": "01bd057d630a4e6026231d8ebdf1e36800c65f620dca6dd8bef6ea3a7191f73a",
    "generate --family fixed-weight-kautz --sigma 4 -k 3 --band 1 2": "993b6691076720c3b2b1b5de4fe604b207e7ea00d2daa920ef740c91c84957c3",
    "generate --family de-bruijn -k 2": "ce00225041d511fbef580edacc7d7085b37c30b7ade693ba531254e964154986",
    "generate --family mystery --sigma 3": "c4de764a17299e8424a4a6ae35784864771bdc55a27f1f18f2d626160b872798",
    "generate --help": "a78e914d12e8a96eff1d3d01557cafa0d3e5778808a147452cd661dcd6a4589c",
    "--help": "1562975fd315b86194f9987993cab0e3a8e3627da20b2505e8beec9cb9f75494",
}


def digest(command: str) -> str:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(command.split())
    payload = f"{code}\0{out.getvalue()}\0{err.getvalue()}"
    return hashlib.sha256(payload.encode()).hexdigest()


@pytest.mark.parametrize("command", GOLDEN)
def test_cli_output_matches_golden_hash(command, monkeypatch):
    if command in ARGPARSE_TEXT and sys.version_info[:2] not in ((3, 10), (3, 11)):
        pytest.skip("argparse wording differs on this Python version")
    monkeypatch.setenv("COLUMNS", "80")
    assert digest(command) == GOLDEN[command]


if __name__ == "__main__":
    os.environ["COLUMNS"] = "80"
    for command in GOLDEN:
        print(f"    {command!r}: {digest(command)!r},")
