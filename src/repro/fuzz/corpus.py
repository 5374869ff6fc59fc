"""On-disk campaign state: corpus, findings log, checkpoint.

A campaign directory is self-describing and survives anything short of
losing the disk:

* ``programs/`` — every distinct generated program, stored once under
  its content hash (the same sha256 key shape
  :func:`repro.obs.ledger.content_hash` uses for run manifests);
  duplicate generator output dedups here, and witness artifacts
  reference these files so ``repro replay`` can rebuild the program.
* ``witnesses/`` — one replayable witness JSON per minimized finding.
* ``findings.json`` — the versioned findings log (a single JSON
  document; ``repro inspect`` renders it).
* ``checkpoint.json`` — the resume point, wrapped in
  :mod:`repro.common.serialize`'s persistent document envelope and
  rewritten atomically (:func:`repro.obs.ledger.write_atomic`) after
  every completed input: a campaign killed with ``kill -9`` mid-run
  loses at most the inputs that were in flight, and a resume skips
  everything in the checkpoint's ``done`` map by content hash.

Only the campaign *coordinator* writes here (workers ship results over
a queue), so no file needs cross-process locking; atomic rewrites are
still used throughout so a concurrent reader — ``repro inspect``, a
watcher, the CI assertions — never sees a torn document.
"""

import json
import os

from repro.common.serialize import (
    SerializationError,
    unwrap_document,
    wrap_document,
)
from repro.fuzz.generators import GENERATOR_VERSION
from repro.obs.ledger import write_atomic

#: Document kinds (the ``type`` key ``repro inspect`` sniffs).
CHECKPOINT_KIND = "fuzz-checkpoint"
FINDINGS_KIND = "fuzz-findings"

#: Findings-log schema version (the log is a plain document, not an
#: envelope payload, so it carries its own version key).
FINDINGS_VERSION = 1

#: Characters of the content hash used in filenames (the full hash
#: stays in the findings/checkpoint records).
_NAME_HASH = 16


class CorpusError(Exception):
    """The campaign directory is unusable or inconsistent."""


class Corpus:
    """One campaign directory (created on first use)."""

    def __init__(self, root):
        self.root = str(root)
        self.programs_dir = os.path.join(self.root, "programs")
        self.witnesses_dir = os.path.join(self.root, "witnesses")
        self.findings_path = os.path.join(self.root, "findings.json")
        self.checkpoint_path = os.path.join(self.root, "checkpoint.json")

    def ensure_dirs(self):
        os.makedirs(self.programs_dir, exist_ok=True)
        os.makedirs(self.witnesses_dir, exist_ok=True)

    # -- programs -----------------------------------------------------

    def program_path(self, content_hash, extension):
        return os.path.join(
            self.programs_dir, content_hash[:_NAME_HASH] + extension
        )

    def add_program(self, inp):
        """Store ``inp``'s source under its content hash.

        Returns ``(path, added)``: ``added`` is False on a dedup hit
        (the file already holds this exact program — same hash, same
        bytes — so nothing is written).
        """
        self.ensure_dirs()
        path = self.program_path(inp.content_hash, inp.extension)
        if os.path.exists(path):
            return path, False
        write_atomic(path, inp.source, raw=True)
        return path, True

    def program_count(self):
        try:
            return len(os.listdir(self.programs_dir))
        except OSError:
            return 0

    # -- witnesses ----------------------------------------------------

    def witness_path(self, content_hash):
        return os.path.join(
            self.witnesses_dir, content_hash[:_NAME_HASH] + ".json"
        )

    def save_witness(self, content_hash, record_dict):
        """Store one (already JSON-shaped) witness artifact."""
        self.ensure_dirs()
        path = self.witness_path(content_hash)
        write_atomic(path, record_dict)
        return path

    # -- findings log -------------------------------------------------

    def _fresh_findings(self, campaign=None):
        return {
            "type": FINDINGS_KIND,
            "version": FINDINGS_VERSION,
            "campaign": campaign or {},
            "findings": [],
        }

    def load_findings(self):
        """The findings log (a fresh empty one if none exists yet)."""
        try:
            with open(self.findings_path) as handle:
                doc = json.load(handle)
        except OSError:
            return self._fresh_findings()
        except ValueError as exc:
            raise CorpusError(
                "findings log {} is not valid JSON: {}".format(
                    self.findings_path, exc
                )
            )
        if not isinstance(doc, dict):
            raise CorpusError(
                "findings log {} is not a JSON object".format(
                    self.findings_path
                )
            )
        if doc.get("type") != FINDINGS_KIND:
            raise CorpusError(
                "{} is not a findings log (type={!r})".format(
                    self.findings_path, doc.get("type")
                )
            )
        if doc.get("version") != FINDINGS_VERSION:
            raise CorpusError(
                "unsupported findings log version {!r} (expected {})"
                .format(doc.get("version"), FINDINGS_VERSION)
            )
        if not isinstance(doc.get("findings"), list):
            raise CorpusError(
                "findings log {}: field 'findings' is not a list".format(
                    self.findings_path
                )
            )
        return doc

    def append_finding(self, finding, campaign=None):
        """Append one finding record; returns the new total count."""
        self.ensure_dirs()
        doc = self.load_findings()
        if campaign:
            doc["campaign"] = campaign
        doc["findings"].append(finding)
        write_atomic(self.findings_path, doc)
        return len(doc["findings"])

    def write_findings_header(self, campaign):
        """Ensure the log exists with the campaign config recorded,
        even when the run finds nothing (an absent log and a clean log
        must be distinguishable)."""
        self.ensure_dirs()
        doc = self.load_findings()
        doc["campaign"] = campaign
        write_atomic(self.findings_path, doc)

    # -- checkpoint ---------------------------------------------------

    def save_checkpoint(self, state):
        """Atomically rewrite the resume point."""
        self.ensure_dirs()
        write_atomic(
            self.checkpoint_path, wrap_document(CHECKPOINT_KIND, state)
        )

    def load_checkpoint(self):
        """The checkpoint payload, or ``None`` when none exists.

        A malformed or foreign checkpoint raises — resuming over state
        the campaign cannot interpret must fail loudly, not quietly
        restart from zero (or worse, skip unfinished work).
        """
        try:
            with open(self.checkpoint_path) as handle:
                doc = json.load(handle)
        except OSError:
            return None
        except ValueError as exc:
            raise CorpusError(
                "checkpoint {} is not valid JSON: {}".format(
                    self.checkpoint_path, exc
                )
            )
        try:
            state = unwrap_document(doc, CHECKPOINT_KIND)
        except SerializationError as exc:
            raise CorpusError(str(exc))
        if not isinstance(state, dict):
            raise CorpusError(
                "checkpoint {}: field 'payload' is not a JSON object"
                .format(self.checkpoint_path)
            )
        if not isinstance(state.get("kinds", []), list):
            raise CorpusError(
                "checkpoint {}: field 'payload.kinds' is not a list"
                .format(self.checkpoint_path)
            )
        done = state.get("done")
        if done is not None and not (
            isinstance(done, dict)
            and all(
                key.isdigit() and isinstance(value, str)
                for key, value in done.items()
            )
        ):
            raise CorpusError(
                "checkpoint {}: field 'payload.done' is not an object "
                "from input index to program hash".format(
                    self.checkpoint_path
                )
            )
        if state.get("generator_version") != GENERATOR_VERSION:
            raise CorpusError(
                "checkpoint was written by generator version {!r} "
                "(this build is {}); its content hashes cannot be "
                "reproduced — start a fresh corpus".format(
                    state.get("generator_version"), GENERATOR_VERSION
                )
            )
        return state
