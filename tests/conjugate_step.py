"""The letter-level right conjugation that the chain places of
``morphisms._chain_place`` replaced, kept as their oracle."""

from ietwords import DomainError, FiniteWord, Morphism


def right_conjugate_step(morphism: Morphism) -> Morphism | None:
    """Conjugate by the shared first letter, or ``None`` when the images
    do not all start with the same letter."""
    if not morphism.is_nonerasing:
        raise DomainError("right conjugation needs a non-erasing morphism")
    first = {image.letters[0] for image in morphism.images}
    if len(first) != 1:
        return None
    head = bytes([first.pop()])
    return Morphism(
        morphism.alphabet,
        tuple(
            FiniteWord(morphism.alphabet, image.letters[1:] + head)
            for image in morphism.images
        ),
    )
